"""Run one torusflow CLI command in-process with per-layer spans.

    python bench/trace_cli.py STATS.json run --config CFG --out DIR

The public functions of ``field``, ``norms``, ``solver``, ``estimates`` and
``experiments`` are wrapped from here, without touching the package: each
wrapper replaces the function under every name that refers to it in any
torusflow module namespace (``physical_data`` is imported by ``solver`` and
used by ``field`` itself, for instance).  A span records its duration and
the time of the spans it caused, so self time is the duration minus its
children.  Spans are aggregated by name in memory and written to STATS.json
when the command returns; the exit code is the command's.
"""

import functools
import json
import sys
import time
from collections import defaultdict

from torusflow import cli, estimates, experiments, field, norms, solver

MODULES = (field, norms, solver, estimates, experiments)


class SpanStats:
    __slots__ = ("calls", "total", "first", "children", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.first = 0.0
        self.children = defaultdict(float)  # child span name -> seconds
        self.extra = defaultdict(int)       # counts a hook adds

    def to_dict(self):
        return {"calls": self.calls, "total": self.total,
                "first": self.first, "children": dict(self.children),
                "extra": dict(self.extra)}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self._stack = []  # open spans: [name, {child name: seconds}]

    def wrap(self, name, fn, after=None):
        """Wrapper timing fn as span `name` (a string, or a function of the
        call's arguments); after(stats, args, kwargs, result) may add
        counts."""
        stack, stats = self._stack, self.stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [label, defaultdict(float)]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                st = stats[label]
                if st.calls == 0:
                    st.first = elapsed
                st.calls += 1
                st.total += elapsed
                for child, seconds in frame[1].items():
                    st.children[child] += seconds
                if stack:
                    stack[-1][1][label] += elapsed
            if after is not None:
                after(stats[label], args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, after=None):
        """Replace module.attr under every torusflow name bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self):
        def count_steps(st, args, kwargs, result):
            st.extra["steps"] += args[0].n_steps

        def snapshot_bytes(st, args, kwargs, result):
            count_steps(st, args, kwargs, result)
            st.extra["snapshot_bytes"] += sum(s.nbytes
                                              for s in result.snapshots)

        def members(st, args, kwargs, result):
            st.extra["members"] += result.ensemble_size

        def report_name(args, kwargs):
            return f"norms.compute_norm_report.{args[0].grid.dim}d"

        for attr in ("spectral_data", "physical_data"):
            self.patch(field, attr, "field.transform")
        self.patch(field, "physical_padded", "field.physical_padded")
        self.patch(field, "save_field", "field.save_field")
        self.patch(field, "load_field", "field.load_field")
        self.patch(norms, "compute_norm_report", report_name)
        for attr in ("l2_norm_sq", "grad_l2_norm_sq", "sobolev_norm_sq"):
            self.patch(norms, attr, "norms.parseval")
        self.patch(solver, "run_2d_base", "solver.run_2d_base",
                   snapshot_bytes)
        self.patch(solver, "run_perturbation", "solver.run_perturbation",
                   count_steps)
        self.patch(solver, "run_full_3d", "solver.run_full_3d", count_steps)
        self.patch(solver, "save_trajectory", "solver.save_trajectory")
        self.patch(solver, "load_trajectory", "solver.load_trajectory")
        solver.ForcingSpec.evaluate = self.wrap(
            "solver.ForcingSpec.evaluate", solver.ForcingSpec.evaluate)
        self.patch(estimates, "calibrate_constants",
                   "estimates.calibrate_constants", members)
        self.patch(estimates, "forcing_lp_sq_series",
                   "estimates.forcing_lp_sq_series")
        self.patch(estimates, "gronwall_envelope",
                   "estimates.gronwall_envelope")
        self.patch(experiments, "analyze", "experiments.analyze")


def main(argv):
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(command)
    with open(stats_path, "w") as fh:
        json.dump({k: v.to_dict() for k, v in tracer.stats.items()}, fh,
                  indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
