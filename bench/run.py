"""Benchmark of the torusflow run -> verify pipeline.

    python3 bench/run.py --workload smoke --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

Untraced (--trace 0): `torusflow run` and then `torusflow verify` on its
output (three times), each a fresh `python -m
torusflow` process with PYTHONPATH=src, one process at a time, repeated
round(--seconds / the workload's typical repeat time) times, at least once.
Every repeat checks the outputs with bench/checks.py.  The end-to-end
metrics are medians over the processes; setup_s is the median of several
fresh interpreters importing torusflow.cli.

Traced (--trace 1): one repeat whose run and first verify go through
bench/trace_cli.py, which wraps the package's public functions in-process.
It prints the per-layer metrics and the traced wall times; their excess over
the untraced medians is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# name -> (torusflow run arguments, verify processes per repeat, typical
# seconds of one repeat on a 2-vCPU Xeon guest).  verify is repeated so that
# the median of verify_s rests on several processes.  A run makes
# round(--seconds / typical) repeats, at least one, however fast the host is
# at the moment: every run attempts whole, equal rounds, and the number of
# samples does not follow the host's speed.
WORKLOADS = {
    "smoke": (["--scenario", "stability-smoke"], 3, 28.0),
    "forced-direct": (["--config", str(BENCH / "workloads" /
                                       "forced-direct.json")], 3, 30.0),
}

# fresh interpreters timed before and again after the repeats, so that
# setup_s does not rest on one moment of a noisy host
SETUP_SAMPLES = 4
# an invocation must end within 180 s: start no repeat that would end later
# than this, judged by the previous repeat
SOFT_LIMIT_S = 150.0
CHILD_LIMIT_S = 170.0

NORM_SPANS = ("norms.compute_norm_report.2d", "norms.compute_norm_report.3d",
              "norms.parseval")
RUN_SPANS = ("solver.run_2d_base", "solver.run_perturbation",
             "solver.run_full_3d")


class Child:
    """Environment and deadline shared by every process a run starts."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def timed(self, argv, log):
        """(wall seconds, exit code, peak RSS in MB) of one child process.

        The child's own rusage comes from wait4; a child still running at
        the deadline is killed and reaped.
        """
        t0 = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def tail(path, lines=15):
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def dir_mb(path):
    total = sum(f.stat().st_size for f in Path(path).rglob("*")
                if f.is_file())
    return total / 1e6


def measure_setup(child, work):
    """Wall times of SETUP_SAMPLES interpreters importing torusflow.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, code, _ = child.timed(
            [sys.executable, "-c", "import torusflow.cli"],
            work / "setup.log")
        if code != 0:
            raise RuntimeError("importing torusflow.cli failed:\n"
                               + tail(work / "setup.log"))
        samples.append(wall)
    return samples


def one_repeat(child, workload, seed, work, trace_stats=None):
    """torusflow run, then verify on its output, on one output directory.

    Returns a dict of timings, the operations attempted and failed, and
    the problems that are not the known verify margin mismatch.  With
    trace_stats=(run path, verify path) the run and the first verify run
    under bench/trace_cli.py.
    """
    run_args, verifies, _ = WORKLOADS[workload]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    plain = [sys.executable, "-m", "torusflow"]
    traced = [sys.executable, str(BENCH / "trace_cli.py")]
    rec = {"attempted": 1 + verifies, "failed": 0, "problems": [],
           "moved": [], "verify_s": [], "verify_rss": []}

    argv = (traced + [str(trace_stats[0])] if trace_stats else plain) \
        + ["run", *run_args, "--seed", str(seed), "--out", str(out)]
    rec["run_s"], code, rec["run_rss"] = child.timed(argv, work / "run.log")
    if code:
        problems = [f"run exited {code}:\n{tail(work / 'run.log')}"]
    else:
        try:
            problems = checks.check_run_output(str(out))
        except Exception:  # a check that breaks is a failed operation
            problems = [traceback.format_exc()]
    if problems:
        rec["problems"] += problems
        rec["failed"] = rec["attempted"]  # verify of a broken run proves nothing
        return rec
    rec["artifact_mb"] = dir_mb(out)
    run_ineq = checks.load_json(out / "inequalities.json")

    for i in range(verifies):
        # verify rewrites these two; removing run's copies first shows that
        # it did
        (out / "inequalities.json").unlink(missing_ok=True)
        (out / "windows.csv").unlink(missing_ok=True)
        argv = (traced + [str(trace_stats[1])] if trace_stats and i == 0
                else plain) + ["verify", "--out", str(out)]
        wall, code, rss = child.timed(argv, work / "verify.log")
        rec["verify_s"].append(wall)
        rec["verify_rss"].append(rss)
        if code:
            problems, moved = [f"verify exited {code}:\n"
                               f"{tail(work / 'verify.log')}"], []
        else:
            try:
                problems, moved = checks.check_verify_output(str(out),
                                                             run_ineq)
            except Exception:
                problems, moved = [traceback.format_exc()], []
        rec["problems"] += problems
        rec["moved"] += moved
        rec["failed"] += 1 if problems or moved else 0
    return rec


def layer_metrics(run_stats, verify_stats):
    """Per-layer figures from the span aggregates of the two commands."""
    merged = {}
    for stats in (run_stats, verify_stats):
        for name, st in stats.items():
            m = merged.setdefault(name, {"calls": 0, "total": 0.0,
                                         "children": {}, "extra": {}})
            m["calls"] += st["calls"]
            m["total"] += st["total"]
            for key in ("children", "extra"):
                for k, v in st[key].items():
                    m[key][k] = m[key].get(k, 0) + v

    def span(name):
        return merged.get(name, {"calls": 0, "total": 0.0, "children": {},
                                 "extra": {}})

    def per_call_ms(name):
        s = span(name)
        return 1000.0 * s["total"] / s["calls"] if s["calls"] else 0.0

    def self_s(name):
        s = span(name)
        return s["total"] - sum(s["children"].values())

    def step_ms(name):
        s = span(name)
        steps = s["extra"].get("steps", 0)
        if not steps:
            return 0.0
        norm = sum(s["children"].get(c, 0.0) for c in NORM_SPANS)
        return 1000.0 * (s["total"] - norm) / steps

    calib = span("estimates.calibrate_constants")
    members = calib["extra"].get("members", 0)
    padded_first = run_stats.get("field.physical_padded", {}).get("first", 0.0)
    return {
        "field.transform_calls": span("field.transform")["calls"],
        "field.transform_s": span("field.transform")["total"],
        "field.padded_calls": span("field.physical_padded")["calls"],
        "field.padded_s": span("field.physical_padded")["total"],
        "field.padded_first_s": padded_first,
        "field.snapshots_written": span("field.save_field")["calls"],
        "field.snapshot_write_s": span("field.save_field")["total"],
        "field.snapshots_read": span("field.load_field")["calls"],
        "field.snapshot_read_s": span("field.load_field")["total"],
        "norms.report_calls": span(NORM_SPANS[0])["calls"]
        + span(NORM_SPANS[1])["calls"],
        "norms.report_2d_ms": per_call_ms(NORM_SPANS[0]),
        "norms.report_3d_ms": per_call_ms(NORM_SPANS[1]),
        "norms.parseval_s": sum(span(r)["children"].get("norms.parseval", 0.0)
                                for r in RUN_SPANS),
        "solver.steps": sum(span(r)["extra"].get("steps", 0)
                            for r in RUN_SPANS),
        "solver.base_step_ms": step_ms("solver.run_2d_base"),
        "solver.perturbation_step_ms": step_ms("solver.run_perturbation"),
        "solver.direct_step_ms": step_ms("solver.run_full_3d"),
        "solver.forcing_eval_calls": span("solver.ForcingSpec.evaluate")["calls"],
        "solver.forcing_eval_s": span("solver.ForcingSpec.evaluate")["total"],
        "solver.save_s": self_s("solver.save_trajectory"),
        "solver.load_s": self_s("solver.load_trajectory"),
        "solver.base_snapshot_mb":
            span("solver.run_2d_base")["extra"].get("snapshot_bytes", 0) / 1e6,
        "estimates.calibrate_s": calib["total"],
        "estimates.calibrate_member_ms":
            1000.0 * calib["total"] / members if members else 0.0,
        "estimates.forcing_series_s":
            span("estimates.forcing_lp_sq_series")["total"],
        "experiments.analyze_s": span("experiments.analyze")["total"],
        "estimates.envelope_s": span("estimates.gronwall_envelope")["total"],
    }


def run_workload(workload, seed, seconds, trace, spec):
    """Measure one workload; returns the result object to print."""
    t_start = time.monotonic()
    child = Child(t_start + CHILD_LIMIT_S)
    work = RUNS / workload
    work.mkdir(parents=True, exist_ok=True)
    seed = seed % 2**31  # torusflow seeds numpy generators, which need >= 0

    if trace:
        stats = (work / "trace-run.json", work / "trace-verify.json")
        for p in stats:
            p.unlink(missing_ok=True)
        reps = [one_repeat(child, workload, seed, work, stats)]
        values = {}
        if not reps[0]["problems"]:
            values = layer_metrics(checks.load_json(stats[0]),
                                   checks.load_json(stats[1]))
            values["trace.run_s"] = reps[0]["run_s"]
            values["trace.verify_s"] = reps[0]["verify_s"][0]
        wanted = spec["per_layer"]
    else:
        setup = measure_setup(child, work)
        reps = []
        for _ in range(max(1, round(seconds / WORKLOADS[workload][2]))):
            rep_start = time.monotonic()
            reps.append(one_repeat(child, workload, seed, work))
            now = time.monotonic()
            if now - t_start + (now - rep_start) > SOFT_LIMIT_S:
                break
        setup += measure_setup(child, work)
        values = {"setup_s": statistics.median(setup)}
        good = [r for r in reps if not r["problems"]]
        if good:
            values.update({
                "run_s": statistics.median(r["run_s"] for r in good),
                "verify_s": statistics.median(
                    v for r in good for v in r["verify_s"]),
                "run_peak_rss_mb": statistics.median(
                    r["run_rss"] for r in good),
                "verify_peak_rss_mb": statistics.median(
                    v for r in good for v in r["verify_rss"]),
                "artifact_mb": statistics.median(
                    r["artifact_mb"] for r in good),
            })
        wanted = spec["end_to_end"]

    problems = [p for r in reps for p in r["problems"]]
    for p in problems:
        sys.stderr.write(f"[{workload}] {p}\n")
    moved = sorted({k for r in reps for k in r["moved"]})
    if moved:
        sys.stderr.write(f"[{workload}] verify moved the margins of "
                         f"{', '.join(moved)} (known defect; counted as a "
                         "failed verify)\n")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    return {
        "correct": not problems and not missing,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }, len(reps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torusflow" / "cli.py").is_file():
        sys.stderr.write(f"error: no torusflow sources under {SRC}\n")
        return 2
    spec = checks.load_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        result, repeats = run_workload(name, args.seed, seconds, args.trace,
                                       spec)
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<30} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<14} {'operations':<30} {result['attempted']:>14d} "
              f"attempted, {result['failed']} failed, {repeats} repeats, "
              f"correct={result['correct']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
