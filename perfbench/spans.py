"""Spans recorded from outside the program, around its public entry points.

The ``zenger`` modules import each other's functions by name, so a layer
function has one binding per importing module.  :meth:`Tracer.patch` finds
every binding of each traced function across the loaded ``zenger`` modules
and replaces all of them; :meth:`Tracer.restore` puts the originals back.

A span is ``[name, start, end, parent, request, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``request`` the request id and
``info`` the counters read off the call's arguments and result.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

OPTIMAL = "optimal"  # zenger.lp.OPTIMAL, the status of a solved LP


def _lp_info(args, kwargs, result):
    rows, cols = args[0].lhs.shape
    return {"rows": rows, "cols": cols, "failed": result.status != OPTIMAL}


# (module, function, counters read off the call) for every traced layer.
# ``core`` is not listed: its helpers are too small to time, so their cost
# shows in the self time of their callers.
LAYERS = (
    ("lp", "solve_lp", _lp_info),
    ("norms", "generators", lambda a, k, r: {"functionals": len(r)}),
    ("norms", "dual_norm_lmo", None),
    ("norms", "projection_norm", None),
    ("solver", "solve_zenger", lambda a, k, r: {"iterations": r.iterations}),
    ("solver", "_barrier_refine", lambda a, k, r: {"none": r is None}),
    ("solver", "certify", lambda a, k, r: {"ok": bool(r.ok)}),
    ("asymptotics", "pn_table", lambda a, k, r: {"rows": len(r.rows)}),
    (
        "numrange",
        "support_curve",
        lambda a, k, r: {"grid": r.thetas.size, "n": np.shape(a[0])[0]},
    ),
    ("numrange", "spectrum_hull_check", None),
    ("cli", "main", None),
)

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        """Call ``fn()`` inside a span named ``name``."""
        return self._wrap(name, fn, info)()

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    record[INFO] = info(args, kwargs, result)
                return result
            except Exception:
                record[INFO] = {"raised": True}
                raise
            finally:
                stack.pop()
                record[END] = perf_counter()

        return traced

    def patch(self) -> None:
        """Wrap every binding of every function in :data:`LAYERS`."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "zenger" or name.startswith("zenger."))
        ]
        for mod_name, fn_name, info in LAYERS:
            original = getattr(sys.modules[f"zenger.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, info)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.sites.append(f"{mod.__name__}.{attr}")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _ancestor_counts(spans, child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    count = 0
    for s in spans:
        if s[NAME] != child:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        count += p >= 0
    return count


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged per traced pass, as name -> (value, unit)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name]) / passes

    def busy(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name]) / passes

    def self_s(name):
        return sum(own[i] for i in by_name[name]) / passes

    def infos(name, key):
        return [spans[i][INFO][key] for i in by_name[name]
                if spans[i][INFO] and key in spans[i][INFO]]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def per_call(child, parent):
        n = len(by_name[parent])
        return _ancestor_counts(spans, child, parent) / n if n else 0.0

    lp_rows, lp_cols = infos("lp.solve_lp", "rows"), infos("lp.solve_lp", "cols")
    tableau = [r * (2 * c + r + 1) * 8 / 1e6 for r, c in zip(lp_rows, lp_cols)]
    lp_failed = sum(1 for i in by_name["lp.solve_lp"]
                    if spans[i][INFO].get("failed") or spans[i][INFO].get("raised"))
    grids = infos("numrange.support_curve", "grid")
    dims = infos("numrange.support_curve", "n")
    return {
        "lp.solve_lp.calls": (calls("lp.solve_lp"), "count"),
        "lp.solve_lp.busy_s": (busy("lp.solve_lp"), "s"),
        "lp.solve_lp.rows_mean": (mean(lp_rows), "count"),
        "lp.solve_lp.rows_max": (float(max(lp_rows, default=0)), "count"),
        "lp.solve_lp.cols_mean": (mean(lp_cols), "count"),
        "lp.solve_lp.failed": (lp_failed / passes, "count"),
        "lp.solve_lp.tableau_mb_max": (max(tableau, default=0.0), "MB"),
        "norms.generators.calls": (calls("norms.generators"), "count"),
        "norms.generators.busy_s": (busy("norms.generators"), "s"),
        "norms.generators.functionals_sum": (
            sum(infos("norms.generators", "functionals")) / passes, "count"),
        "norms.dual_norm_lmo.calls": (calls("norms.dual_norm_lmo"), "count"),
        "norms.dual_norm_lmo.busy_s": (busy("norms.dual_norm_lmo"), "s"),
        "norms.dual_norm_lmo.self_s": (self_s("norms.dual_norm_lmo"), "s"),
        "norms.projection_norm.calls": (calls("norms.projection_norm"), "count"),
        "norms.projection_norm.busy_s": (busy("norms.projection_norm"), "s"),
        "norms.projection_norm.lmo_per_call": (
            per_call("norms.dual_norm_lmo", "norms.projection_norm"), "count"),
        "solver.solve_zenger.calls": (calls("solver.solve_zenger"), "count"),
        "solver.solve_zenger.busy_s": (busy("solver.solve_zenger"), "s"),
        "solver.solve_zenger.self_s": (self_s("solver.solve_zenger"), "s"),
        "solver.solve_zenger.iterations_mean": (
            mean(infos("solver.solve_zenger", "iterations")), "count"),
        "solver.solve_zenger.lmo_per_call": (
            per_call("norms.dual_norm_lmo", "solver.solve_zenger"), "count"),
        "solver._barrier_refine.calls": (calls("solver._barrier_refine"), "count"),
        "solver._barrier_refine.busy_s": (busy("solver._barrier_refine"), "s"),
        "solver._barrier_refine.none_frac": (
            mean(infos("solver._barrier_refine", "none")), "ratio"),
        "solver.certify.calls": (calls("solver.certify"), "count"),
        "solver.certify.busy_s": (busy("solver.certify"), "s"),
        "solver.certify.ok_frac": (mean(infos("solver.certify", "ok")), "ratio"),
        "asymptotics.pn_table.calls": (calls("asymptotics.pn_table"), "count"),
        "asymptotics.pn_table.busy_s": (busy("asymptotics.pn_table"), "s"),
        "asymptotics.pn_table.self_s": (self_s("asymptotics.pn_table"), "s"),
        "asymptotics.pn_table.rows": (
            sum(infos("asymptotics.pn_table", "rows")) / passes, "count"),
        "numrange.support_curve.calls": (calls("numrange.support_curve"), "count"),
        "numrange.support_curve.busy_s": (busy("numrange.support_curve"), "s"),
        "numrange.support_curve.eig_problems": (sum(grids) / passes, "count"),
        "numrange.support_curve.n3_sum": (
            sum(g * n ** 3 for g, n in zip(grids, dims)) / passes, "count"),
        "numrange.spectrum_hull_check.busy_s": (
            busy("numrange.spectrum_hull_check"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }


# Which traced layers must record calls (True) or none (False) on each
# workload.  A binding the tracer missed shows up here as a zero where a
# call was predicted, instead of reading as a free layer.
PREDICTED_CALLS = {
    "solve-composite": {
        "lp.solve_lp": True, "norms.generators": True,
        "norms.dual_norm_lmo": True, "norms.projection_norm": False,
        "solver.solve_zenger": True, "solver._barrier_refine": True,
        "solver.certify": True, "asymptotics.pn_table": False,
        "numrange.support_curve": False, "numrange.spectrum_hull_check": False,
        "cli.main": True,
    },
    "pn-cascade": {
        "lp.solve_lp": True, "norms.generators": True,
        "norms.dual_norm_lmo": True, "norms.projection_norm": True,
        "solver.solve_zenger": False, "solver._barrier_refine": False,
        "solver.certify": False, "asymptotics.pn_table": True,
        "numrange.support_curve": False, "numrange.spectrum_hull_check": False,
        "cli.main": True,
    },
    "numrange-sweep": {
        "lp.solve_lp": False, "norms.generators": False,
        "norms.dual_norm_lmo": False, "norms.projection_norm": False,
        "solver.solve_zenger": False, "solver._barrier_refine": False,
        "solver.certify": False, "asymptotics.pn_table": False,
        "numrange.support_curve": True, "numrange.spectrum_hull_check": True,
        "cli.main": True,
    },
}


def coverage_problems(workload: str, spans: list[list]) -> list[str]:
    """Every traced layer whose call count contradicts the prediction."""
    counts = defaultdict(int)
    for s in spans:
        counts[s[NAME]] += 1
    problems = []
    for name, fires in PREDICTED_CALLS[workload].items():
        if fires and counts[name] == 0:
            problems.append(f"{name} recorded no calls on {workload}")
        elif not fires and counts[name]:
            problems.append(f"{name} recorded {counts[name]} calls on {workload}")
    return problems
