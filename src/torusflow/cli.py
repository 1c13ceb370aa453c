"""Command-line front end.

Sub-commands:
  run        simulate a scenario config (or a bundled scenario) and check it
  verify     re-run the estimate checks on stored trajectories
  calibrate  print the embedding/interpolation constants of a grid
  sweep      run a grid of scenario variants, each in a forked worker
"""

import argparse
import json
import math
import os
import shutil
import sys
from contextlib import ExitStack
from dataclasses import asdict

from . import estimates as est
from . import experiments as exp
from .grid import make_grid
from .solver import _write_atomic
from .worker import Worker

# safety factor on the dt-halving margin constant C: the worst margins of
# a second-order scheme differ by (3/4) C dt^2 only to leading order in dt
MARGIN_SAFETY = 2.0


def _add_common(p):
    p.add_argument("--config", help="path to a JSON scenario config")
    p.add_argument("--scenario", help="bundled scenario name")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="runs/out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="periodic Navier-Stokes runs with executable "
                    "energy-estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and check a scenario")
    _add_common(p_run)
    p_run.add_argument("--dt-halving", action="store_true",
                       help="also run at dt/2 and report the margin "
                            "convergence constant")

    p_verify = sub.add_parser("verify",
                              help="re-check stored trajectories")
    p_verify.add_argument("--out", required=True,
                          help="existing experiment directory")

    p_cal = sub.add_parser("calibrate", help="constants of a grid")
    p_cal.add_argument("--N", type=int, default=16)
    p_cal.add_argument("--L", type=float, default=None,
                       help="box length (default 2*pi)")
    p_cal.add_argument("--out", default=None,
                       help="write constants JSON here (default stdout)")

    p_sweep = sub.add_parser("sweep", help="run scenario variants")
    p_sweep.add_argument("--config", required=True,
                         help="JSON config with a top-level 'sweep' list of "
                              "override objects")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", default="runs/sweep")
    p_sweep.add_argument("--parallel", type=int, default=1,
                         help="members run at once in forked workers")
    return parser


def _load_spec(args) -> dict:
    if args.config and args.scenario:
        raise exp.ConfigError("give either --config or --scenario, not both")
    if args.config:
        with open(args.config) as fh:
            return exp.parse_config(fh.read(), args.seed)
    if args.scenario:
        return exp.bundled_scenario(args.scenario, args.seed)
    raise exp.ConfigError("one of --config or --scenario is required")


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    # verify must not accept an earlier --dt-halving run's experiment
    shutil.rmtree(os.path.join(args.out, "half-dt"), ignore_errors=True)
    artifacts = exp.run_experiment(spec, args.out)
    text, code = exp.emit_report(artifacts)
    sys.stdout.write(text)
    if args.dt_halving:
        fine = dict(spec, dt=spec["dt"] / 2.0)
        fine_arts = exp.run_experiment(fine, os.path.join(args.out, "half-dt"))
        C = margin_convergence_constant(artifacts.reports,
                                        fine_arts.reports, spec["dt"])
        sys.stdout.write(f"dt-halving margin constant C = {C:.6e} "
                         f"(tol = C*dt^2 + {est.FLOAT_FLOOR:g})\n")
        # a check failed at the dt/2 run's four times tighter tolerance
        # fails the run
        fine_text, fine_code = exp.emit_report(fine_arts)
        if fine_code != exp.EXIT_OK:
            sys.stdout.write(f"half-dt: {fine_text.splitlines()[0]}\n")
        code = max(code, fine_code)
    return code


def margin_convergence_constant(coarse: dict, fine: dict,
                                dt: float) -> float:
    """Tolerance constant from a dt-halving pair of margin sets.

    The worst margins differ by ~ (3/4) C dt^2 for a second-order scheme;
    the returned C carries the safety factor MARGIN_SAFETY.  Only ids
    whose two margins are both finite enter C; with none, C is 1.
    """
    pairs = [(coarse[k].worst_margin, fine[k].worst_margin)
             for k in coarse if k in fine]
    diffs = [abs(a - b) for a, b in pairs
             if math.isfinite(a) and math.isfinite(b)]
    if not diffs:
        return 1.0
    return MARGIN_SAFETY * max(diffs) / (0.75 * dt * dt)


def _cmd_verify(args) -> int:
    artifacts = exp.reverify(args.out)
    text, code = exp.emit_report(artifacts)
    sys.stdout.write(text)
    return code


def _cmd_calibrate(args) -> int:
    L = args.L if args.L is not None else 2.0 * math.pi
    try:
        grid = make_grid(L, args.N, 3)
    except ValueError as exc:
        # an odd N or an L that is not positive and finite
        raise exp.ConfigError(str(exc)) from None
    cal = est.calibrate_constants(grid)
    payload = json.dumps(asdict(cal), indent=2, sort_keys=True) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        _write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    return 0


def _run_member(merged, out_dir):
    # a member that raises is recorded as an error without stopping the
    # others
    try:
        spec = exp.parse_config(json.dumps(merged))
        artifacts = exp.run_experiment(spec, out_dir)
    except exp.ConfigError as exc:
        sys.stderr.write(f"{out_dir}: config error: {exc}\n")
        return out_dir, exp.EXIT_ERROR, True
    except Exception:
        import traceback
        sys.stderr.write(f"{out_dir}: error:\n{traceback.format_exc()}")
        return out_dir, exp.EXIT_ERROR, True
    _, code = exp.emit_report(artifacts)
    return out_dir, code, "blow-up" in artifacts.reports


def _cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise exp.ConfigError(f"--parallel must be at least 1, got "
                              f"{args.parallel}")
    with open(args.config) as fh:
        full = exp.decode_config(fh.read())
    if not isinstance(full, dict):
        raise exp.ConfigError("a sweep config must be a JSON object")
    members = full.pop("sweep", None)
    if not isinstance(members, list) or not members \
            or not all(isinstance(m, dict) for m in members):
        raise exp.ConfigError("sweep config needs a nonempty 'sweep' list "
                              "of objects")
    jobs = []
    for i, overrides in enumerate(members):
        merged = json.loads(json.dumps(full))
        _deep_update(merged, overrides)
        if args.seed is not None:
            merged["seed"] = args.seed
        jobs.append((merged, os.path.join(args.out, f"member_{i:03d}")))

    # up to args.parallel members at once, each in a forked worker, joined
    # in jobs order
    results = []
    with ExitStack() as stack:
        running = []
        for job in jobs:
            if len(running) == args.parallel:
                results.append(running.pop(0).join())
            running.append(stack.enter_context(
                Worker(job[1], _run_member, *job)))
        results += [worker.join() for worker in running]

    worst = 0
    lines = ["member,exit_code,failed"]
    for out_dir, code, failed in results:
        lines.append(f"{out_dir},{code},{failed}")
        worst = max(worst, code)
    table = "\n".join(lines) + "\n"
    os.makedirs(args.out, exist_ok=True)
    _write_atomic(os.path.join(args.out, "sweep.csv"), table)
    sys.stdout.write(table)
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "calibrate": _cmd_calibrate, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except exp.ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return exp.EXIT_ERROR
    except OSError as exc:  # a missing input or an unusable --out
        sys.stderr.write(f"error: {exc}\n")
        return exp.EXIT_ERROR


def _deep_update(target: dict, overrides: dict) -> None:
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(target.get(key), dict):
            _deep_update(target[key], val)
        else:
            target[key] = val


if __name__ == "__main__":
    sys.exit(main())
