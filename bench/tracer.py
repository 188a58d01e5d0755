"""Per-layer tracing from outside the program.

The tracer replaces each traced function by a timing wrapper in every
haptolab module that binds it (`from .grid import f` makes a second binding
that patching grid alone would miss), and restores the originals on exit.
It records calls and self time (own time minus the traced calls nested
inside it) per function, plus counts taken at the stepper boundary: the dt
arguments of step_diffuse and step_sharp, and the laplacian_neumann calls
made inside a Neumann solve.
"""
from __future__ import annotations

import functools
import sys
import time

# layer -> traced functions; a dotted name is a method on a class
TRACED = {
    "grid": ("helmholtz_solve_neumann", "laplacian_neumann",
             "advective_divergence", "gradient_centered"),
    "kernel": ("f_bistable",),
    "diffuse": ("step_diffuse", "_reaction_half_step", "chi_gradient",
                "dt_max", "advance_enzyme", "make_initial_data"),
    "sharp": ("step_sharp", "curvature_term", "_upwind_advection",
              "_band_gradient_drifted", "front_cells", "_check_front",
              "redistance", "init_levelset"),
    "curves": ("extract_level_curve", "distance_to_curve",
               "crossing_number_inside", "InterfaceCurve.is_simple"),
}
STEPPERS = ("diffuse.step_diffuse", "sharp.step_sharp")
COUNTS = {"diffuse.steps": "count", "sharp.steps": "count",
          "sharp.redistances": "count", "grid.cg_matvecs": "count",
          "diffuse.dt_min": "model_time", "diffuse.dt_max": "model_time",
          "trace.overhead_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, in report order, with its
    unit."""
    units = {}
    for layer, funcs in TRACED.items():
        for f in funcs:
            units[f"{layer}.{f}.calls"] = "count"
            units[f"{layer}.{f}.self_s"] = "s"
    return units | COUNTS


class Tracer:
    """Context manager that traces the TRACED functions while active; its
    counts add up over every `with` block it is entered in."""

    def __init__(self):
        keys = [f"{layer}.{f}" for layer, funcs in TRACED.items()
                for f in funcs]
        self.calls = dict.fromkeys(keys, 0)
        self.self_s = dict.fromkeys(keys, 0.0)
        self.dts = {k: [] for k in STEPPERS}
        self.cg_matvecs = 0
        self._stack = []          # [name, start, time in traced children]
        self._patches = []        # (owner, attribute, original)

    def _wrap(self, key: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        stepper = key in STEPPERS
        matvec = key == "grid.laplacian_neumann"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stepper:
                self.dts[key].append(args[2] if len(args) > 2 else kwargs["dt"])
            if matvec and any(f[0] == "grid.helmholtz_solve_neumann"
                              for f in stack):
                self.cg_matvecs += 1
            frame = [key, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - frame[1]
                stack.pop()
                calls[key] += 1
                self_s[key] += took - frame[2]
                if stack:
                    stack[-1][2] += took

        return traced

    def __enter__(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == "haptolab" or name.startswith("haptolab.")}
        for layer, funcs in TRACED.items():
            home = mods.get(f"haptolab.{layer}")
            for fname in funcs:
                key = f"{layer}.{fname}"
                if home is None:
                    continue
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = getattr(cls, meth, None)
                    if orig is not None:
                        self._patch(cls, meth, self._wrap(key, orig))
                    continue
                orig = getattr(home, fname, None)
                if orig is None:     # removed by a later change: 0 calls
                    continue
                wrapped = self._wrap(key, orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapped)
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    def metrics(self) -> dict[str, float]:
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        d = self.dts["diffuse.step_diffuse"]
        out["diffuse.steps"] = self.calls["diffuse.step_diffuse"]
        out["sharp.steps"] = self.calls["sharp.step_sharp"]
        out["sharp.redistances"] = self.calls["sharp.redistance"]
        out["grid.cg_matvecs"] = self.cg_matvecs
        out["diffuse.dt_min"] = min(d) if d else 0.0
        out["diffuse.dt_max"] = max(d) if d else 0.0
        return out

    def totals_errors(self, t_end: float, evolves_fields: bool) -> list[str]:
        """Disagreements between totals reached two ways: the dt arguments
        at the stepper boundary against t_end, and (where the fields evolve)
        the step count against the advance_enzyme calls."""
        errors = []
        dt_sum = sum(sum(v) for v in self.dts.values())
        if not abs(dt_sum - t_end) <= 1e-9 * t_end:
            errors.append(f"stepper dt arguments sum to {dt_sum!r}, "
                          f"t_end is {t_end!r}")
        steps = sum(self.calls[k] for k in STEPPERS)
        enzyme = self.calls["diffuse.advance_enzyme"]
        if evolves_fields and enzyme != steps:
            errors.append(f"{steps} steps but {enzyme} advance_enzyme calls")
        return errors
