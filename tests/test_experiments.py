"""Config parsing, orchestration, reporting, CLI plumbing."""

import json
import os
import shutil

import numpy as np
import pytest

from torusflow import experiments as exp
from torusflow import cli
from torusflow.estimates import (FAIL, PASS, VACUOUS, InequalityReport,
                                 StabilityBudget, reports_to_json)
from torusflow.field import load_field
from torusflow.norms import NORM_REPORT_COLUMNS
from torusflow.solver import load_trajectory

SMALL = {
    "scenario": "test-small",
    "nu": 0.5,
    "dt": 5e-3,
    "T": 0.5,
    "windows": 1,
    "N": 8,
    "norm_stride": 10,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.1}},
}

# SMALL with a perturbation run: exercises calibration and every stability
# check
SMALL_PERT = dict(SMALL, perturbation={"snapshot_stride": 50})

# SMALL_PERT under a time-dependent perturbation force: B1 reads a nonzero
# L^{6/5} series
FORCED_PERT = dict(SMALL, perturbation={
    "snapshot_stride": 50,
    "forcing": {"kind": "expression", "expressions": [
        "1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)", "1e-6*sin(x2)"]}})

# FORCED_PERT for a few steps, with a forced base and the full 3D run
FORCED_DIRECT = dict(SMALL, T=0.05, norm_stride=5, snapshot_stride=5,
                     direct_3d=True,
                     base=dict(SMALL["base"], forcing={
                         "kind": "expression", "expressions": [
                             "1e-3*sin(x1)*cos(x2)*cos(t)",
                             "-1e-3*cos(x1)*sin(x2)*cos(t)"]}),
                     perturbation=dict(FORCED_PERT["perturbation"],
                                       snapshot_stride=5))


def test_parse_minimal_fills_defaults():
    spec = exp.parse_config(json.dumps({"nu": 0.25}))
    assert spec["nu"] == 0.25
    assert spec["N"] == 16                 # default applied
    assert spec["budget"]["alpha"] == 0.03
    assert spec["perturbation"] is None


def test_parse_round_trip():
    spec = exp.parse_config(json.dumps(SMALL))
    again = exp.parse_config(spec.to_json())
    assert again.raw == spec.raw


def test_parse_rejects_unknown_key():
    with pytest.raises(exp.ConfigError, match="unknown key"):
        exp.parse_config(json.dumps({"viscosity": 1.0}))


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(exp.ConfigError, match="line"):
        exp.parse_config("{\n  'nu': 1.0,\n}")


def test_parse_refuses_inadmissible_budget():
    cfg = {"budget": {"c4": 1 / 3, "c5": 150.0, "gamma": 1.0,
                      "gamma_star": 1.0, "c_star": 0.1}}
    with pytest.raises(exp.ConfigError, match="refused"):
        exp.parse_config(json.dumps(cfg))


def test_parse_rejects_bad_forcing_expression():
    cfg = {"base": {"forcing": {"kind": "expression",
                                "expressions": ["import os", "0*x1"]}}}
    with pytest.raises(exp.ConfigError):
        exp.parse_config(json.dumps(cfg))


@pytest.mark.parametrize("expr", [
    "(1).__class__ and 0*x1",  # attribute access reaches object internals
    "9**9**9 + 0*x1",          # an integer power would never finish
], ids=["attribute", "integer-power"])
def test_parse_rejects_forcing_expression_outside_grammar(expr):
    cfg = {"base": {"forcing": {"kind": "expression",
                                "expressions": [expr, "0*x1"]}}}
    with pytest.raises(exp.ConfigError):
        exp.parse_config(json.dumps(cfg))


def test_bundled_scenarios_parse():
    for name in ("taylor-green-decay", "stability-smoke",
                 "hypothesis-violation"):
        spec = exp.bundled_scenario(name)
        assert spec["scenario"] == name
    with pytest.raises(exp.ConfigError):
        exp.bundled_scenario("missing")


def test_run_experiment_base_only(tmp_path):
    spec = exp.parse_config(json.dumps(SMALL))
    arts = exp.run_experiment(spec, str(tmp_path / "out"))
    assert not arts.failed
    for name in ("spec.json", "base", "inequalities.json", "windows.csv",
                 "summary.txt", "meta.json"):
        assert (tmp_path / "out" / name).exists()
    doc = json.loads((tmp_path / "out" / "inequalities.json").read_text())
    assert {"3.1", "3.2", "3.3", "3.4", "3.5", "3.8"} <= set(doc)
    assert all(v["status"] == "pass" for v in doc.values())
    text, code = exp.emit_report(arts)
    assert code == exp.EXIT_OK
    assert "3.3" in text


def test_emit_report_exit_codes():
    ok = InequalityReport("a", [0.0], [1.0], 1e-9)
    bad = InequalityReport("b", [0.0], [-1.0], 1e-9)
    vac = InequalityReport("c", [0.0], [-1.0], 1e-9)
    vac.status = VACUOUS

    arts = exp.RunArtifacts("x", {}, "h", 0.0, False,
                            {"a": ok, "c": vac})
    assert exp.emit_report(arts)[1] == exp.EXIT_OK

    arts = exp.RunArtifacts("x", {}, "h", 0.0, False,
                            {"a": ok, "b": bad})
    text, code = exp.emit_report(arts)
    assert code == exp.EXIT_FAIL
    assert text.splitlines()[0].startswith("FAIL: b")

    empty = exp.RunArtifacts("x", {}, "h", 0.0, False, {})
    assert exp.emit_report(empty)[1] == exp.EXIT_ERROR


def test_load_artifacts_missing_dir(tmp_path, capsys):
    # verify loads a run's artifacts from its directory: a missing one is
    # refused with one line on stderr
    with pytest.raises(FileNotFoundError):
        exp.reverify(str(tmp_path / "nothing"))
    assert cli.main(["verify", "--out", str(tmp_path / "nothing")]) \
        == exp.EXIT_ERROR
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("cfg", [SMALL_PERT, FORCED_PERT],
                         ids=["unforced", "forced"])
def test_reverify_reproduces_statuses(tmp_path, cfg):
    spec = exp.parse_config(json.dumps(cfg))
    out = tmp_path / "out"
    first = exp.run_experiment(spec, str(out))
    written = {name: (out / name).read_bytes()
               for name in ("inequalities.json", "windows.csv")}
    arts = exp.reverify(str(out))
    assert set(arts.reports) == set(first.reports)
    for key in arts.reports:
        assert arts.reports[key].status == first.reports[key].status
    # verify reads the stored norm series, so it rewrites run's artifacts
    # byte for byte
    for name, data in written.items():
        assert (out / name).read_bytes() == data, name


def test_reverify_reads_no_snapshots(tmp_path):
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL_PERT)), str(out))
    written = (out / "inequalities.json").read_bytes()
    for run in ("base", "perturbation"):
        shutil.rmtree(out / run / "snapshots")
    exp.reverify(str(out))
    assert (out / "inequalities.json").read_bytes() == written


def test_rerun_replaces_stale_snapshots(tmp_path):
    # a second run into the same directory used to leave the first run's
    # extra snapshot files beside its own
    out = tmp_path / "out"
    for stride, count in ((10, 11), (50, 3)):
        cfg = dict(SMALL_PERT, perturbation={"snapshot_stride": stride})
        # an earlier output's perturbation norm series, which this run
        # does not record
        stale = out / "perturbation" / "norms.csv"
        if stale.parent.exists():
            stale.write_text("stale\n")
        exp.run_experiment(exp.parse_config(json.dumps(cfg)), str(out))
        assert not stale.exists()
        for run in ("base", "perturbation"):
            summary = json.loads((out / run / "summary.json").read_text())
            files = sorted(os.listdir(out / run / "snapshots"))
            assert len(files) == summary["snapshots"]
            assert not (out / run / "snapshots.partial").exists()
        assert len(files) == count


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_blowup_leaves_partial_snapshots(tmp_path, capsys, rerun):
    # a run that blows up in a directory holding a complete earlier run
    # must not leave that run's trajectories looking complete, nor its
    # verdicts beside a meta.json that says the rerun failed
    out = tmp_path / "out"
    verdicts = ("constants.json", "inequalities.json", "windows.csv")
    if rerun:
        exp.run_experiment(exp.parse_config(json.dumps(
            dict(SMALL_PERT, direct_3d=True))), str(out))
        assert all((out / name).exists() for name in verdicts)
    cfg = dict(SMALL_PERT, direct_3d=True, perturbation={
        "initial": {"kind": "random", "target_h1": 1e4}})
    with np.errstate(all="ignore"):
        arts = exp.run_experiment(exp.parse_config(json.dumps(cfg)),
                                  str(out))
    assert arts.failed and "blow-up" in arts.reports
    assert json.loads((out / "meta.json").read_text())["failed"]
    assert not any((out / name).exists() for name in verdicts)
    for run in ("base", "perturbation", "direct"):
        assert (out / run / "snapshots.partial").is_dir()
        assert not (out / run / "summary.json").exists()
        if not rerun:
            assert sorted(os.listdir(out / run)) == ["snapshots.partial"]
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run the experiment again" in err
    for run in ("base", "perturbation"):
        assert os.path.join(run, "summary.json") in err
    assert err.count("\n") == 1


def test_verify_refuses_trajectory_without_norm_series(tmp_path, capsys):
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    (out / "base" / "norms.csv").unlink()
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    assert "norms.csv is missing" in capsys.readouterr().err


def test_verify_refuses_trajectory_without_forcing_series(tmp_path, capsys):
    # a diagnostics.csv without the forcing_l2_sq column, as written before
    # the run recorded its forcing norms
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    path = out / "base" / "diagnostics.csv"
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",forcing_l2_sq")
    path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines)
                    + "\n")
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert "run the experiment again" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def forced_pert_out(tmp_path_factory):
    # a fixture, so the run is made before no_fft takes effect
    out = tmp_path_factory.mktemp("forced") / "out"
    exp.run_experiment(exp.parse_config(json.dumps(FORCED_PERT)), str(out))
    return out


def test_verify_path_evaluates_no_force(forced_pert_out, no_fft):
    # every forcing series is read from disk: with numpy.fft refused,
    # loading and analysing reproduce the run's inequalities.json
    with pytest.raises(AssertionError):
        np.fft.rfftn(np.zeros((4, 4)))
    out = forced_pert_out
    raw = json.loads((out / "spec.json").read_text())
    budget = StabilityBudget(
        **json.loads((out / "constants.json").read_text())["budget"])
    base = load_trajectory(out / "base")
    pert = load_trajectory(out / "perturbation")
    assert pert.diag["forcing_l6_5_sq"].min() > 0.0
    reports = exp.analyze(base, pert, raw, budget)[0]
    assert reports_to_json(reports) + "\n" \
        == (out / "inequalities.json").read_text()


def _norms_csv_edit(edit):
    """An edit of base/norms.csv, line by line, and what verify's error
    names."""
    def apply(out):
        path = out / "base" / "norms.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines()))
                        + "\n")
        return [str(out / "base"), "run the experiment again"]
    return apply


def _drop_w1(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def _swap_grad_l3_w1(lines):
    i, j = (NORM_REPORT_COLUMNS.index(c) for c in ("grad_l3_sq", "w1_sigma"))
    out = []
    for line in lines:
        cells = line.split(",")
        cells[i], cells[j] = cells[j], cells[i]
        out.append(",".join(cells))
    return out


#: the columns of norms.csv written before it held only what a check reads
NINE_COLUMNS = ("time_stamp", "l2_sq", "h1_sq", "h2_sq", "grad_l2_sq",
                "grad_l3_sq", "l6_sq", "sigma", "w1_sigma")


def _nine_columns(lines):
    rows = (dict(zip(NORM_REPORT_COLUMNS, line.split(",")))
            for line in lines[1:])
    return [",".join(NINE_COLUMNS)] \
        + [",".join(row.get(c, "4.0") for c in NINE_COLUMNS) for row in rows]


def _spec_with_perturbation_norm_stride(out):
    path = out / "spec.json"
    spec = json.loads(path.read_text())
    spec["perturbation"]["norm_stride"] = 50
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return ["unknown key 'norm_stride' in config.perturbation"]


def _spec_with_calibration(out):
    path = out / "spec.json"
    spec = json.loads(path.read_text())
    spec["calibration"] = {"ensemble_size": 100, "seed": 0}
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return ["unknown key 'calibration' in config"]


@pytest.mark.parametrize("edit", [
    _norms_csv_edit(_drop_w1), _norms_csv_edit(_swap_grad_l3_w1),
    _norms_csv_edit(lambda lines: lines[:1] + _drop_w1(lines[1:])),
    _norms_csv_edit(lambda lines: lines[:3]),
    _norms_csv_edit(_nine_columns), _spec_with_perturbation_norm_stride,
    _spec_with_calibration],
    ids=["dropped-w1-sigma", "swapped-grad-l3-w1-sigma",
         "rows-without-w1-sigma", "ends-early", "nine-columns",
         "perturbation-norm-stride", "calibration-section"])
def test_verify_refuses_norm_series_of_another_schema(forced_pert_out,
                                                      tmp_path, capsys, edit):
    # a base norms.csv that is not the run's, or a spec that names a
    # perturbation norm_stride or a calibration ensemble: the truncated
    # series used to end in an IndexError (exit 1) and the swapped pair to
    # pass with moved 4.26a/4.27 margins (exit 0); the nine-column series
    # and such a spec are those of an output written before only the base
    # recorded a norm series, or before the constants were closed-form
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    expected = edit(out)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err
    assert err.count("\n") == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


@pytest.mark.parametrize("missing", ["perturbation", "constants.json",
                                     "meta.json"])
def test_verify_refuses_incomplete_stability_run(forced_pert_out, tmp_path,
                                                 capsys, missing):
    # without the perturbation run, verify used to check the base alone,
    # exit 0 and rewrite inequalities.json with the 2D ids only
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    path = out / missing
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert missing in err and "run the experiment again" in err
    assert err.count("\n") == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


def test_inadmissible_budget_fraction_is_a_config_error(tmp_path, capsys):
    # the budget is resolved by parse_config: a refused one used to leave
    # the run's spec.json behind
    err = _assert_run_refused(tmp_path, capsys,
                              dict(SMALL_PERT, budget={"c_star_frac": 5.0}))
    assert "budget refused" in err


def _assert_run_refused(tmp_path, capsys, cfg):
    """run exits 2 with a one-line config error and writes nothing."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    assert code == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("cfg", [
    dict(SMALL, norm_stride=30),
    # the perturbation records no norm series: its norm_stride is no key
    dict(SMALL_PERT, perturbation={"snapshot_stride": 50, "norm_stride": 30}),
    dict(SMALL, snapshot_stride=0),
    # the checks read the base run's norm series: it must be recorded
    dict(SMALL, norm_stride=None)],
    ids=["base-norm-stride", "perturbation-norm-stride", "zero-stride",
         "no-base-norm-stride"])
def test_cli_refuses_stride_off_the_window_grid(tmp_path, capsys, cfg):
    # with norm_stride 30, dt*norm_stride = 0.15 puts norm samples at 0,
    # 0.15, 0.30, 0.45, so the window [0, 0.5] would end between two of them
    _assert_run_refused(tmp_path, capsys, cfg)


@pytest.mark.parametrize("cfg", [
    {"nu": None}, {"dt": "2e-3"}, {"T": True}, {"L": [6.0]},
    {"windows": "3"}, {"windows": 1.0}, {"N": None}, {"seed": 0.5},
    {"perturbation": {}, "budget": {"c_star_frac": None}}],
    ids=["null-nu", "string-dt", "bool-T", "list-L", "string-windows",
         "float-windows", "null-N", "float-seed", "null-budget-fraction"])
def test_cli_refuses_config_values_of_the_wrong_type(tmp_path, capsys, cfg):
    # a null or a string used to reach a comparison or a product and end in
    # a TypeError traceback with exit 1
    _assert_run_refused(tmp_path, capsys, dict(SMALL, **cfg))


@pytest.mark.parametrize("cfg", [
    {"N": 32, "windows": 1, "dt": 0.5, "norm_stride": 2,
     "snapshot_stride": 2},
    # dt*nu*kmax^2 is 80 on the 2D grid but 120 on the 3D one
    {"N": 16, "windows": 1, "dt": 0.625, "T": 1.25, "norm_stride": 2,
     "snapshot_stride": 2,
     "perturbation": {"snapshot_stride": 2}}],
    ids=["base", "perturbation"])
def test_cli_refuses_unresolved_viscous_scale(tmp_path, capsys, cfg):
    err = _assert_run_refused(tmp_path, capsys, cfg)
    assert "viscous scale" in err


def test_combine_forcing():
    from torusflow.solver import ForcingSpec

    f = ForcingSpec(kind="expression", expressions=("sin(x1)", "0*x1"))
    g = ForcingSpec(kind="expression",
                    expressions=("0*x1", "cos(x3)", "0*x1"))
    both = exp.combine_forcing(f, g)
    assert len(both.expressions) == 3
    assert "sin(x1)" in both.expressions[0]
    assert exp.combine_forcing(ForcingSpec(), ForcingSpec()).kind == "zero"


def test_cli_run_and_verify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = str(tmp_path / "out")
    code = cli.main(["run", "--config", str(cfg_path), "--out", out])
    assert code == 0
    assert "3.3" in capsys.readouterr().out
    code = cli.main(["verify", "--out", out])
    assert code == 0


def test_cli_errors(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path)]) == exp.EXIT_ERROR
    assert cli.main(["verify", "--out", str(tmp_path / "none")]) \
        == exp.EXIT_ERROR


def test_cli_calibrate(tmp_path, capsys):
    out = tmp_path / "cal.json"
    code = cli.main(["calibrate", "--N", "8", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"c1", "c2", "c3", "c_interp", "c4", "c5"}
    assert doc["c1"] == pytest.approx(0.5)
    assert doc["c3"] == pytest.approx(0.15774, abs=5e-6)
    assert doc["c_interp"] == pytest.approx(0.70245, abs=5e-6)
    assert doc["c5"] > 1
    # the bounds are not sampled: there is no ensemble to size or seed
    for option in ("--ensemble", "--seed"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", option, "100"])
        assert exc.value.code == exp.EXIT_ERROR


@pytest.mark.parametrize("args", [["--N", "7"], ["--L", "-1"]],
                         ids=["odd-N", "negative-L"])
def test_cli_calibrate_bad_arguments_are_config_errors(args, capsys):
    assert cli.main(["calibrate", *args]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_meta_records_phase_times(tmp_path):
    base = dict(SMALL["base"], forcing={"kind": "expression", "expressions": [
        "1e-4*sin(x2)*cos(t)", "1e-4*sin(x1)*cos(t)"]})
    spec = exp.parse_config(json.dumps(dict(FORCED_PERT, base=base,
                                            direct_3d=True)))
    exp.run_experiment(spec, str(tmp_path / "out"))
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert set(meta["phases"]) == {"base", "perturbation", "direct",
                                   "analysis", "writing"}
    assert all(v > 0 for v in meta["phases"].values())
    assert sum(meta["phases"].values()) <= meta["wall_seconds"]
    # busy seconds of the forked workers, beside the parent's timeline
    workers = meta["workers"]
    assert set(workers) == {"direct"}
    assert all(0 < v < meta["wall_seconds"] for v in workers.values())
    assert meta["steps_per_s"] > 0
    # one evaluation per step time, plus one wherever t_i + dt is not the
    # next step time t_{i+1} bit for bit
    n, dt = round(SMALL["T"] / SMALL["dt"]), SMALL["dt"]
    tgrid = dt * np.arange(n + 1)
    off_grid = np.count_nonzero(tgrid[:-1] + dt != tgrid[1:])
    counts = meta["force_evaluations"]
    assert set(counts) == {"base", "perturbation", "direct"}
    assert all(n + 1 <= c <= n + 1 + off_grid for c in counts.values())
    # the snapshot files each run streamed, as they lie in snapshots/
    for name, streamed in meta["snapshots"].items():
        files = list((tmp_path / "out" / name / "snapshots").iterdir())
        assert streamed == {"count": len(files),
                            "bytes": sum(f.stat().st_size for f in files)}
    assert set(meta["snapshots"]) == {"base", "perturbation", "direct"}
    assert meta["snapshots"]["perturbation"]["count"] == 3


def test_cli_sweep(tmp_path, capsys):
    cfg = dict(SMALL)
    cfg["sweep"] = [{"nu": 0.5}, {"nu": 0.7}]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "sweep")
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", out,
                     "--parallel", "2"])
    assert code == 0
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert (tmp_path / "sweep" / "member_000" / "summary.txt").exists()
    assert (tmp_path / "sweep" / "member_001" / "summary.txt").exists()


@pytest.mark.parametrize("parallel", [1, 2])
def test_cli_sweep_member_fails_alone(tmp_path, capsys, parallel):
    cfg = dict(SMALL_PERT, sweep=[{}, {"budget": {"c_star_frac": 5.0}}])
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--parallel", str(parallel)])
    assert code == exp.EXIT_ERROR
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows == ["member,exit_code,failed",
                    f"{out / 'member_000'},0,False",
                    f"{out / 'member_001'},{exp.EXIT_ERROR},True"]
    if parallel == 1:
        # a forked member writes to the process's stderr, past capsys
        assert "budget refused" in capsys.readouterr().err


def test_run_and_verify_do_not_import_scipy(tmp_path):
    # scipy is a test-only dependency; importing scipy.signal alone costs
    # about 1.3 s in every CLI process
    import subprocess
    import sys

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_PERT))
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "from torusflow import cli\n"
        f"assert cli.main(['run', '--config', {str(cfg_path)!r}, "
        f"'--out', {out!r}]) == 0\n"
        f"assert cli.main(['verify', '--out', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        "\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _modules_after_cli_import(packages):
    """The modules of the top-level packages named in packages that a fresh
    interpreter holds after importing torusflow.cli."""
    import subprocess
    import sys

    script = ("import sys\n"
              "import torusflow.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              f"{tuple(packages)!r}))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_process_pool():
    # the forked workers use os.fork directly; importing multiprocessing or
    # concurrent.futures would add 12-20 ms to every CLI process
    assert _modules_after_cli_import(("multiprocessing", "concurrent")) \
        == "[]"


def test_stored_snapshots_vanish_outside_dealias_mask(tmp_path):
    # every state of every run lives on the 2/3-rule modes, exactly: no
    # roundoff of a physical-space initial state or of a transformed force
    # reaches the modes the rule drops
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(FORCED_DIRECT)), str(out))
    for run in ("base", "perturbation", "direct"):
        # only the 2D base run records a norm series
        assert (out / run / "norms.csv").exists() == (run == "base"), run
        assert (load_trajectory(out / run).norms == {}) == (run != "base")
        paths = sorted((out / run / "snapshots").iterdir())
        assert len(paths) == 3, run
        for path in paths:
            snap = load_field(path)
            outside = snap.data[:, ~snap.grid.dealias_mask]
            assert not outside.any(), (run, path.name)


def test_force_above_two_thirds_is_refused():
    # at N=8 the 2/3 rule keeps |m| <= 2, so the kernel would drop sin(3 x2)
    # while the config still names it; a time-dependent one is caught at a
    # time where it is nonzero
    base = dict(SMALL["base"], forcing={"kind": "expression", "expressions": [
        "0.1*sin(x2) + sin(3*x2)", "0*x1"]})
    with pytest.raises(exp.ConfigError,
                       match=r"config\.base\.forcing: .*above N/3"):
        exp.parse_config(json.dumps(dict(SMALL, base=base)))
    pert = dict(FORCED_PERT["perturbation"], forcing={
        "kind": "expression", "expressions": [
            "1e-6*sin(x3)", "1e-6*sin(3*x1)*sin(t)", "0*x1"]})
    with pytest.raises(exp.ConfigError,
                       match=r"config\.perturbation\.forcing: .*above N/3"):
        exp.parse_config(json.dumps(dict(SMALL, perturbation=pert)))
    # the same forces on the kept modes, or at N=16, are accepted
    exp.parse_config(json.dumps(dict(SMALL, N=16, base=base)))
    exp.parse_config(json.dumps(dict(SMALL, N=16, perturbation=pert)))
    exp.parse_config(json.dumps(FORCED_DIRECT))


def test_hashes_are_sha256_without_openssl(grid2):
    # the digests are hashlib's SHA-256, and importing the CLI loads no
    # OpenSSL (_hashlib): only a run hashes a config
    import hashlib

    from torusflow.solver import (SolverConfig, config_hash,
                                  taylor_green_exact)

    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=0.01, T=0.01,
                       initial=taylor_green_exact(grid2, 0.1, 0.0))
    payload = json.dumps(cfg.describe() | {"label": "2d_base"},
                         sort_keys=True)
    assert config_hash(cfg, {"label": "2d_base"}) \
        == hashlib.sha256(payload.encode()).hexdigest()[:16]
    spec = exp.parse_config(json.dumps(FORCED_PERT))
    assert exp._spec_hash(spec) \
        == hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]
    assert _modules_after_cli_import(("_hashlib",)) == "[]"


def test_margin_convergence_constant():
    coarse = {"a": InequalityReport("a", [0.0], [1.0], 0)}
    fine = {"a": InequalityReport("a", [0.0], [1.0 + 7.5e-7], 0)}
    C = cli.margin_convergence_constant(coarse, fine, 1e-3)
    assert C == pytest.approx(2 * 7.5e-7 / (0.75e-6), rel=1e-6)
