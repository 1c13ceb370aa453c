"""Config parsing, orchestration, reporting, CLI plumbing."""

import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from torusflow import experiments as exp
from torusflow import cli, estimates as est, worker as worker_module
from torusflow.estimates import (FAIL, PASS, VACUOUS, InequalityReport,
                                 StabilityBudget, reports_to_json)
from torusflow.field import divergence_linf, load_field, random_divfree_field
from torusflow.grid import make_grid
from torusflow.solver import SolverConfig, load_trajectory
from torusflow.worker import Worker

SMALL = {
    "scenario": "test-small",
    "nu": 0.5,
    "dt": 5e-3,
    "T": 0.5,
    "windows": 1,
    "N": 8,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.1}},
}

# SMALL with a perturbation run: exercises calibration and every stability
# check
SMALL_PERT = dict(SMALL, snapshot_stride=50, perturbation={})

# SMALL_PERT under a time-dependent perturbation force: B1 reads a nonzero
# forcing_l2_sq series
FORCED_PERT = dict(SMALL, snapshot_stride=50, perturbation={
    "forcing": {"kind": "expression", "expressions": [
        "1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)", "1e-6*sin(x2)"]}})

# FORCED_PERT for a few steps, with a forced base and the full 3D run
FORCED_DIRECT = dict(SMALL, T=0.05, snapshot_stride=5,
                     direct_3d=True,
                     base=dict(SMALL["base"], forcing={
                         "kind": "expression", "expressions": [
                             "1e-3*sin(x1)*cos(x2)*cos(t)",
                             "-1e-3*cos(x1)*sin(x2)*cos(t)"]}),
                     perturbation=FORCED_PERT["perturbation"])


def _load_run(out, run):
    """The trajectory of the run directory out/run, loaded with the
    configuration that out/spec.json gives it (the direct run shares the
    perturbation's grid and clock)."""
    spec = json.loads((out / "spec.json").read_text())
    label = {"base": "2d_base"}.get(run, run)
    return load_trajectory(out / run, exp._run_config(
        spec, "base" if run == "base" else "perturbation"), label)


def test_parse_minimal_fills_defaults():
    spec = exp.parse_config(json.dumps({"nu": 0.25}))
    assert spec["nu"] == 0.25
    assert spec["N"] == 16                 # default applied
    assert spec["budget"]["alpha"] == 0.03
    assert spec["perturbation"] is None


BENCH_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "workloads" \
    / "forced-direct.json"


@pytest.mark.parametrize("load", [
    lambda: exp.parse_config(json.dumps(SMALL)),
    lambda: exp.bundled_scenario("taylor-green-decay"),
    lambda: exp.bundled_scenario("stability-smoke"),
    lambda: exp.bundled_scenario("hypothesis-violation"),
    lambda: exp.parse_config(json.dumps(SMALL_PERT)),
    lambda: exp.parse_config(json.dumps(FORCED_DIRECT)),
    lambda: exp.parse_config(BENCH_CONFIG.read_text())],
    ids=["small", "taylor-green-decay", "stability-smoke",
         "hypothesis-violation", "small-pert", "forced-direct",
         "bench-forced-direct"])
def test_parse_round_trip(load):
    # a resolved config, as spec.json records it, resolves to itself
    spec = load()
    assert exp.parse_config(json.dumps(spec)) == spec


def _random_initial(**keys) -> dict:
    """A resolved random initial section, as parse_config stores it: the
    kind's defaults with keys put in."""
    return {"kind": "random"} | exp._KINDS["initial"]["random"] | keys


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "no-fork"])
def test_random_initial_field_drawn_in_a_worker_is_unchanged(
        forked, monkeypatch):
    # _build_initial draws a random field in a forked worker: it must be
    # the field drawn in this process, bit for bit, and without os.fork too
    if not forked:
        monkeypatch.delattr(os, "fork")
    grid = make_grid(2 * np.pi, 8, 3)
    # the seeds add up to 7; the target is sqrt(0.5 * gamma) = 1
    got = exp._build_initial(_random_initial(seed=3), grid, 1.0, 4, 2.0)
    want = random_divfree_field(grid, 7, spectrum_decay=4.0, target_h1=1.0)
    assert got.grid == grid
    assert got.time_stamp == 0.0 and divergence_linf(got) < 1e-13
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "no-fork"])
def test_random_initial_field_error_reaches_the_caller(forked, monkeypatch):
    # the worker's exception is re-raised with its type and message, and
    # its child is reaped (the no_child_left fixture)
    if not forked:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="^spectrum_decay must be positive$"):
        exp._build_initial(_random_initial(decay=0.0),
                           make_grid(2 * np.pi, 8, 3), 1.0, 0, 1.0)


def test_null_target_h1_means_not_given():
    # like a null budget override, a null target_h1 takes the value derived
    # from gamma
    fields = []
    for initial in ({"kind": "random"}, {"kind": "random", "target_h1": None}):
        spec = exp.parse_config(json.dumps(dict(
            SMALL_PERT, perturbation={"initial": initial})))
        grid = make_grid(spec["L"], spec["N"], 3)
        gamma = exp._resolve_budget(spec)[1].gamma
        fields.append(exp._build_initial(spec["perturbation"]["initial"],
                                         grid, spec["nu"], spec["seed"],
                                         gamma).data)
    assert np.array_equal(*fields)


def test_defaulted_and_given_random_initial_are_one():
    # a perturbation's initial section, defaulted or given by its kind
    # alone, resolves to one spec, every key of the kind filled in, and
    # draws one field, at the config's seed + 7
    specs = [exp.parse_config(json.dumps(dict(SMALL_PERT, perturbation=p)))
             for p in ({}, {"initial": {"kind": "random"}})]
    assert specs[0] == specs[1]
    initial = specs[0]["perturbation"]["initial"]
    assert initial == {"kind": "random", "seed": 7, "decay": 4.0,
                       "target_h1": None, "h1_sq_frac_of_gamma": 0.5}
    grid = make_grid(specs[0]["L"], specs[0]["N"], 3)
    gamma = exp._resolve_budget(specs[0])[1].gamma
    fields = [exp._build_initial(spec["perturbation"]["initial"], grid,
                                 spec["nu"], spec["seed"], gamma).data
              for spec in specs]
    assert fields[0].tobytes() == fields[1].tobytes()
    want = random_divfree_field(grid, specs[0]["seed"] + 7,
                                spectrum_decay=4.0,
                                target_h1=math.sqrt(0.5 * gamma))
    assert fields[0].tobytes() == want.data.tobytes()


def test_verify_reads_a_spec_with_an_initial_section_as_given(tmp_path):
    # an output whose spec.json records the perturbation's initial section
    # as given, without the keys of its kind left at their defaults (the
    # layout of older outputs), verifies: exit 0, verdicts byte for byte
    out = tmp_path / "out"
    artifacts = exp.run_experiment(exp.parse_config(json.dumps(SMALL_PERT)),
                                   str(out))
    assert exp.emit_report(artifacts)[1] == exp.EXIT_OK
    path = out / "spec.json"
    stored = json.loads(path.read_text())
    del stored["perturbation"]["initial"]["target_h1"]
    assert stored["perturbation"]["initial"] == {
        "kind": "random", "seed": 7, "decay": 4.0,
        "h1_sq_frac_of_gamma": 0.5}
    path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    verdicts = {name: (out / name).read_bytes()
                for name in exp.VERDICT_FILES.values()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_OK
    assert {name: (out / name).read_bytes() for name in verdicts} \
        == verdicts


def test_windows_csv_worst_margin_is_per_window(tmp_path):
    # windows.csv's last column is each window's own worst margin: on a
    # three-window run the rows differ, and the smallest is the worst
    # margin of every report with samples
    artifacts = exp.run_experiment(exp.parse_config(json.dumps(
        dict(SMALL_PERT, windows=3))), str(tmp_path))
    rows = (tmp_path / "windows.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "worst_margin"
    worst = [float(row.split(",")[-1]) for row in rows[1:]]
    assert len(worst) == len(set(worst)) == 3
    assert min(worst) == min(r.worst_margin
                             for r in artifacts.reports.values()
                             if r.margins.size)


@pytest.mark.parametrize("config", [{}, {"perturbation": {}}],
                         ids=["2d", "perturbation"])
def test_parse_shares_no_dict_with_the_defaults(config):
    # editing one resolved spec changed the defaults of every later one
    want = json.dumps(exp.parse_config(json.dumps(config)), sort_keys=True)
    first = exp.parse_config(json.dumps(config))
    sections = [first["budget"], first["tolerance"], first["base"],
                first["base"]["initial"], first["base"]["forcing"]]
    if first["perturbation"] is not None:
        sections += [first["perturbation"]["initial"],
                     first["perturbation"]["forcing"]]
    first["budget"]["alpha"] = 0.5
    for section in sections:
        section["edited"] = True
    again = exp.parse_config(json.dumps(config))
    assert json.dumps(again, sort_keys=True) == want
    assert again["budget"]["alpha"] == 0.03


def test_parse_rejects_unknown_key():
    with pytest.raises(exp.ConfigError, match="unknown key"):
        exp.parse_config(json.dumps({"viscosity": 1.0}))
    # an initial field's parameters are those of its kind
    base = {"initial": {"kind": "taylor-green", "decay": 2.0}}
    with pytest.raises(exp.ConfigError,
                       match=r"unknown key 'decay' in config\.base\.initial"):
        exp.parse_config(json.dumps({"base": base}))


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

    arts = exp.RunArtifacts("x", {}, 0.0, {"a": ok, "c": vac})
    assert exp.emit_report(arts)[1] == exp.EXIT_OK

    arts = exp.RunArtifacts("x", {}, 0.0, {"a": ok, "b": bad})
    text, code = exp.emit_report(arts)
    assert code == exp.EXIT_FAIL
    assert text.splitlines()[0].startswith("FAIL: b")

    empty = exp.RunArtifacts("x", {}, 0.0, {})
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
               for name in exp.VERDICT_FILES.values()}
    for name in written:
        (out / name).unlink()
    arts = exp.reverify(str(out))
    assert set(arts.reports) == set(first.reports)
    for key in arts.reports:
        assert arts.reports[key].status == first.reports[key].status
    # verify reads the stored norm series, so it rewrites run's verdict
    # files, summary.txt too, byte for byte
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
        cfg = dict(SMALL_PERT, snapshot_stride=stride)
        exp.run_experiment(exp.parse_config(json.dumps(cfg)), str(out))
        meta = json.loads((out / "meta.json").read_text())
        for run in ("base", "perturbation"):
            files = sorted(os.listdir(out / run / "snapshots"))
            assert len(files) == meta["snapshots"][run]["count"] == count
            assert not (out / run / "snapshots.partial").exists()


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_blowup_leaves_partial_snapshots(tmp_path, capsys, rerun):
    # a run that blows up in a directory holding a complete earlier run
    # must not leave that run's trajectories looking complete (no
    # diagnostics.csv in any trajectory directory it started), nor its
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
    # the one report is the blow-up, which fails, so the run exits 1 and
    # meta.json says it failed
    assert list(arts.reports) == ["blow-up"]
    assert arts.reports["blow-up"].status == FAIL
    assert exp.emit_report(arts)[1] == exp.EXIT_FAIL
    assert (out / "summary.txt").read_text().startswith("FAIL: blow-up\n")
    assert json.loads((out / "meta.json").read_text())["failed"]
    assert not any((out / name).exists() for name in verdicts)
    for run in ("base", "perturbation", "direct"):
        assert (out / run / "snapshots.partial").is_dir()
        assert not (out / run / "diagnostics.csv").exists()
        if not rerun:
            assert sorted(os.listdir(out / run)) == ["snapshots.partial"]
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run the experiment again" in err
    for run in ("base", "perturbation"):
        assert os.path.join(run, "diagnostics.csv") in err
    assert err.count("\n") == 1


def test_killed_2d_rerun_leaves_no_meta(tmp_path, capsys, monkeypatch):
    # a 2D-only rerun killed after it wrote its spec.json, before its base
    # run starts: it removed the earlier run's base/diagnostics.csv (and
    # meta.json) first, so verify does not check the earlier trajectory
    # under the new spec
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_OK

    def killed(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(exp, "run_2d_base", killed)
    with pytest.raises(KeyboardInterrupt):
        exp.run_experiment(exp.parse_config(json.dumps(dict(SMALL, nu=0.4))),
                           str(out))
    assert json.loads((out / "spec.json").read_text())["nu"] == 0.4
    for run in exp.RUNS:
        assert not (out / run / "diagnostics.csv").exists()
    assert not (out / "meta.json").exists()
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert os.path.join("base", "diagnostics.csv") in err
    assert "run the experiment again" in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["constants.json", "spec.json"])
def test_verify_refuses_truncated_json(forced_pert_out, tmp_path, capsys,
                                       name):
    # a JSON file cut short, as a run killed while writing it in place
    # left it: verify used to end in a JSONDecodeError traceback, exit 1
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    path = out / name
    path.write_bytes(path.read_bytes()[:40])
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if name != "spec.json":
        assert name in err and "run the experiment again" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


def _tamper_c3_c5(constants):
    constants["budget"].update(c3=0.01, c5=50.0)


def _tamper_gamma(constants):
    for key in ("gamma", "gamma_star"):
        constants["budget"][key] *= 1e6


def _tamper_alpha(constants):
    del constants["budget"]["alpha"]


@pytest.mark.parametrize("edit, key", [
    (_tamper_c3_c5, "budget.c3"), (_tamper_gamma, "budget.gamma"),
    (_tamper_alpha, "budget.alpha")], ids=["c3-c5", "gamma", "no-alpha"])
def test_verify_refuses_constants_other_than_the_spec_gives(
        forced_pert_out, tmp_path, capsys, edit, key):
    # verify rebuilds the constants and the budget from spec.json: an edit
    # of c3 and c5 used to verify with exit 0 and moved margins, and a
    # gross gamma or a missing key ended in a traceback, exit 1
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    path = out / "constants.json"
    constants = json.loads(path.read_text())
    edit(constants)
    path.write_text(json.dumps(constants))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert str(path) in err and f"{key} is " in err, err
    assert "run the experiment again" in err
    assert err.count("\n") == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


@pytest.mark.parametrize("edit", [
    lambda path: path.unlink(),
    lambda path: path.write_bytes(path.read_bytes()[:40]),
    lambda path: path.write_text("{}"),
    lambda path: path.write_text(json.dumps(
        json.loads(path.read_text()) | {"failed": True})),
], ids=["deleted", "truncated", "empty", "failed"])
def test_verify_reads_no_meta_json(forced_pert_out, tmp_path, capsys, edit):
    # meta.json is written for the reader: a verify whose output has it
    # deleted, cut short, emptied or saying the run failed used to exit 2,
    # 2, 2 and 1, and now rewrites the verdict files as run wrote them
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    edit(out / "meta.json")
    before = {name: (out / name).read_bytes()
              for name in exp.VERDICT_FILES.values()}
    for name in before:
        (out / name).unlink()
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_OK
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def test_meta_json_appears_only_complete(tmp_path, monkeypatch):
    # a run killed after it wrote meta.json's temporary file, before it
    # moved it into place, leaves neither meta.json nor its temporary file,
    # and verify, which does not read meta.json, accepts the otherwise
    # complete output; an undisturbed run leaves no temporary file
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    assert not list(out.glob("*.tmp"))
    replace = os.replace

    def killed(src, dst):
        if os.path.basename(dst) == "meta.json":
            raise KeyboardInterrupt
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    monkeypatch.undo()
    assert not (out / "meta.json").exists()
    assert not list(out.rglob("*.tmp"))
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_OK


def test_interrupted_verify_leaves_the_verdict_files_whole(
        forced_pert_out, tmp_path, monkeypatch):
    # a verify killed after it wrote windows.csv's temporary file, before
    # it moved it into place, cuts no verdict file short: each holds the
    # bytes it held before, and the temporary file is gone
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    before = {name: (out / name).read_bytes()
              for name in exp.VERDICT_FILES.values()}
    replace = os.replace

    def killed(src, dst):
        if os.path.basename(dst) == "windows.csv":
            raise KeyboardInterrupt
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        exp.reverify(str(out))
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name
    assert not list(out.rglob("*.tmp"))


def test_trajectory_is_complete_only_with_its_diagnostics(tmp_path, capsys,
                                                         monkeypatch):
    # a rerun killed after its base run's snapshots/ is in place, before
    # its diagnostics.csv is: the earlier run's diagnostics.csv went when
    # the rerun started, so verify refuses the directory
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    replace = os.replace

    def killed(src, dst):
        if os.path.basename(dst) == "diagnostics.csv":
            raise KeyboardInterrupt
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    monkeypatch.undo()
    assert (out / "base" / "snapshots").is_dir()
    assert not (out / "base" / "snapshots.partial").exists()
    assert not (out / "base" / "diagnostics.csv").exists()
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert os.path.join("base", "diagnostics.csv") in err
    assert "run the experiment again" in err and err.count("\n") == 1


def test_verify_refuses_trajectory_without_norm_series(tmp_path, capsys):
    # a base diagnostics.csv without its grad_l3_sq and w1_sigma columns
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(SMALL)), str(out))
    path = out / "base" / "diagnostics.csv"
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",grad_l3_sq,w1_sigma")
    path.write_text("\n".join(line.rsplit(",", 2)[0] for line in lines)
                    + "\n")
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert str(path) in err and "run the experiment again" in err
    assert err.count("\n") == 1


def _without_forcing_series(lines):
    # as written before the run recorded its forcing norms
    i = lines[0].index("forcing_l2_sq")
    return [cells[:i] + cells[i + 1:] for cells in lines]


def _with_h2_series(lines):
    # as written while the 3D runs recorded an H2 norm after grad_l2_sq
    i = lines[0].index("grad_l2_sq") + 1
    return [cells[:i] + (["h2_sq"] if n == 0 else cells[i - 1:i])
            + cells[i:] for n, cells in enumerate(lines)]


def _with_l6_5_series(lines):
    # as written while the perturbation recorded the L^{6/5} quadrature of
    # its force after forcing_l2_sq, its last column
    return [cells + (["forcing_l6_5_sq"] if n == 0 else ["0.0"])
            for n, cells in enumerate(lines)]


def test_verify_refuses_trajectory_without_forcing_series(tmp_path, capsys):
    # a diagnostics.csv under an older header: the base's without the
    # forcing_l2_sq column, the perturbation's with h2_sq or with
    # forcing_l6_5_sq
    for n, (cfg, run, edit) in enumerate((
            (SMALL, "base", _without_forcing_series),
            (SMALL_PERT, "perturbation", _with_h2_series),
            (SMALL_PERT, "perturbation", _with_l6_5_series))):
        out = tmp_path / str(n)
        exp.run_experiment(exp.parse_config(json.dumps(cfg)), str(out))
        path = out / run / "diagnostics.csv"
        lines = [line.split(",") for line in path.read_text().splitlines()]
        assert lines[0][-1] == ("w1_sigma" if run == "base"
                                else "forcing_l2_sq")
        path.write_text("\n".join(",".join(cells) for cells in edit(lines))
                        + "\n")
        assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "run the experiment again" in err
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
    base, pert = (_load_run(out, run) for run in ("base", "perturbation"))
    assert pert.diag["forcing_l2_sq"].min() > 0.0
    reports = exp.analyze(base, pert, raw, budget)[0]
    assert reports_to_json(reports) + "\n" \
        == (out / "inequalities.json").read_text()


def _table_edit(edit, run="base"):
    """An edit of run's diagnostics.csv, line by line, and what verify's
    error names."""
    def apply(out):
        path = out / run / "diagnostics.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines()))
                        + "\n")
        return [str(out / run), "run the experiment again"]
    return apply


def _drop_w1(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def _swap_grad_l3_w1(lines):
    header = lines[0].split(",")
    i, j = (header.index(c) for c in ("grad_l3_sq", "w1_sigma"))
    out = []
    for line in lines:
        cells = line.split(",")
        cells[i], cells[j] = cells[j], cells[i]
        out.append(",".join(cells))
    return out


def _relabelled(lines, columns, default="0.0"):
    """lines as a table of columns: each row's cells by the name of its
    header, default for a name the header lacks."""
    rows = (dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:])
    return [",".join(columns)] \
        + [",".join(row.get(c, default) for c in columns) for row in rows]


#: the base table with the mean columns, which no check reads, beside the
#: norm columns
NINE_COLUMNS = ("t", "l2_sq", "grad_l2_sq", "h2_sq", "mean_1", "mean_2",
                "forcing_l2_sq", "grad_l3_sq", "w1_sigma")

#: the base table written before the base run recorded its norms at every
#: step: its norm series was a norms.csv of its own
STRIDED_NORMS_COLUMNS = ("t", "l2_sq", "grad_l2_sq", "h2_sq", "mean_1",
                         "mean_2", "forcing_l2_sq")

#: the perturbation table written before it recorded its mean as mean_sq
PERTURBATION_MEAN_COLUMNS = ("t", "l2_sq", "grad_l2_sq", "mean_1", "mean_2",
                             "mean_3", "forcing_l2_sq")


def _spec_with_norm_stride(out):
    path = out / "spec.json"
    spec = json.loads(path.read_text())
    spec["norm_stride"] = 25
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return ["unknown key 'norm_stride' in config"]


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
    _table_edit(_drop_w1), _table_edit(_swap_grad_l3_w1),
    _table_edit(lambda lines: lines[:1] + _drop_w1(lines[1:])),
    _table_edit(lambda lines: lines[:3]),
    _table_edit(lambda lines: _relabelled(lines, NINE_COLUMNS)),
    _table_edit(lambda lines: _relabelled(lines,
                                               STRIDED_NORMS_COLUMNS)),
    _table_edit(lambda lines: _relabelled(
        lines, PERTURBATION_MEAN_COLUMNS), "perturbation"),
    _spec_with_norm_stride, _spec_with_perturbation_norm_stride,
    _spec_with_calibration],
    ids=["dropped-w1-sigma", "swapped-grad-l3-w1-sigma",
         "rows-without-w1-sigma", "ends-early", "nine-columns",
         "strided-norms-header", "perturbation-mean-components",
         "base-norm-stride",
         "perturbation-norm-stride", "calibration-section"])
def test_verify_refuses_norm_series_of_another_schema(forced_pert_out,
                                                      tmp_path, capsys, edit):
    # a base diagnostics.csv whose norm series is not the run's, or a spec
    # that names a norm_stride or a calibration ensemble: the truncated
    # series used to end in an IndexError (exit 1) and the swapped pair to
    # pass with moved 4.26a/4.27 margins (exit 0); the mean columns, the
    # header without norm columns and such a spec are those of an output
    # written before the base recorded its norms at every step, or before
    # the constants were closed-form; the perturbation's mean components
    # are those of an output written before it recorded mean_sq
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


@pytest.mark.parametrize("run, column", [("base", "forcing_l2_sq"),
                                         ("perturbation", "grad_l2_sq"),
                                         ("perturbation", "mean_sq")])
def test_verify_refuses_a_negative_squared_norm(forced_pert_out, tmp_path,
                                                capsys, run, column):
    # a negative squared norm used to reach the estimates and end in a
    # ValueError traceback with exit 1, the code of a failed inequality
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    path = out / run / "diagnostics.csv"
    lines = [line.split(",") for line in path.read_text().splitlines()]
    i = lines[0].index(column)
    for cells in lines[1:]:
        cells[i] = "-1.0"
    path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert str(path) in err and column in err
    assert "Traceback" not in err and err.count("\n") == 1


# SMALL_PERT under a time-dependent mean force, with a snapshot at every
# step: the perturbation's mean is the force's alone
MEAN_FORCED_PERT = dict(SMALL, snapshot_stride=1, perturbation={
    "forcing": {"kind": "expression", "expressions": [
        "0.01*cos(t) + 0*x1", "0*x1", "0*x1"]}})


def test_perturbation_mean_sq_is_its_mean_squared(tmp_path):
    # mean_sq is (m1^2 + m2^2) + m3^2 of the k = 0 coefficient at every
    # step, bit for bit, and the verdicts are those of the three-column
    # sum (oracles.mean_sq)
    out = tmp_path / "out"
    exp.run_experiment(exp.parse_config(json.dumps(MEAN_FORCED_PERT)),
                       str(out))
    pert = _load_run(out, "perturbation")
    means = np.array([oracles.mean(load_field(p)) for p in sorted(
        (out / "perturbation" / "snapshots").iterdir())])
    assert len(means) == len(pert.diag["t"])
    assert np.abs(means[1:, 0]).min() > 0.0
    want = oracles.mean_sq(means)
    assert pert.diag["mean_sq"].tobytes() == want.tobytes()
    pert.diag["mean_sq"] = want
    budget = StabilityBudget(
        **json.loads((out / "constants.json").read_text())["budget"])
    reports = exp.analyze(_load_run(out, "base"), pert,
                          json.loads((out / "spec.json").read_text()),
                          budget)[0]
    assert reports_to_json(reports) + "\n" \
        == (out / "inequalities.json").read_text()


@pytest.fixture(scope="module")
def two_window_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("two-window") / "out"
    exp.run_experiment(exp.parse_config(json.dumps(dict(SMALL_PERT,
                                                        windows=2))),
                       str(out))
    return out


@pytest.mark.parametrize("edit", [{"dt": 2.5e-3}, {"windows": 1}],
                         ids=["half-dt", "one-window-fewer"])
def test_verify_refuses_a_spec_of_another_clock(two_window_out, tmp_path,
                                                capsys, edit):
    # verify used to take the step count from each run's own config.json
    # and exit 0: with dt halved in spec.json it checked every margin at a
    # quarter of the run's tolerance, with one window fewer it left the
    # last window unchecked
    out = tmp_path / "out"
    shutil.copytree(two_window_out, out)
    path = out / "spec.json"
    path.write_text(json.dumps(json.loads(path.read_text()) | edit))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert str(out / "base") in err and "run the experiment again" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


def test_verify_refuses_a_spec_of_another_version(forced_pert_out, tmp_path,
                                                  capsys):
    # a spec.json that names a key this version no longer has, as
    # budget.c1 of an older output, used to read "config error: unknown
    # key 'c1' in config.budget" alone; verify now names spec.json and
    # says to run the experiment again, still with exit code 2
    out = tmp_path / "out"
    shutil.copytree(forced_pert_out, out)
    path = out / "spec.json"
    spec = json.loads(path.read_text())
    spec["budget"]["c1"] = 1.0
    path.write_text(json.dumps(spec))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and "unknown key 'c1' in config.budget" in err
    assert "another version" in err and "run the experiment again" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


def test_verify_opens_only_the_series_of_a_trajectory(two_window_out,
                                                      tmp_path, monkeypatch):
    # spec.json is the one record of a run's configuration: of a
    # trajectory directory verify opens diagnostics.csv and no other
    # file, not even a config.json that an older output still holds
    out = tmp_path / "out"
    shutil.copytree(two_window_out, out)
    for run in ("base", "perturbation"):
        (out / run / "config.json").write_text("{}")
    opened, builtin_open = [], open

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file))
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_OK
    for run in ("base", "perturbation"):
        names = [p.relative_to(out / run).as_posix() for p in opened
                 if p.is_relative_to(out / run)]
        assert names == ["diagnostics.csv"], run
    # and of the whole output it reads spec.json, constants.json and the
    # series, nothing else; what else it opens are its verdict files'
    # temporary files
    read = {p.relative_to(out).as_posix() for p in opened
            if p.is_relative_to(out) and p.suffix != ".tmp"}
    assert read == {"spec.json", "constants.json", "base/diagnostics.csv",
                    "perturbation/diagnostics.csv"}


@pytest.mark.parametrize("missing", ["perturbation", "constants.json"])
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
    """run exits 2 with a one-line config error and writes nothing.

    The run sees warnings as the CLI does, printed and not raised: the
    suite's filterwarnings = error would turn a RuntimeWarning of numpy
    into an exception that a config check catches, so a config that the
    CLI runs would pass here as refused."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
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
    dict(SMALL_PERT, perturbation={"norm_stride": 30}),
    dict(SMALL, snapshot_stride=0),
    dict(SMALL, norm_stride=None)],
    ids=["base-norm-stride", "perturbation-norm-stride", "zero-stride",
         "no-base-norm-stride"])
def test_cli_refuses_stride_off_the_window_grid(tmp_path, capsys, cfg):
    # every run records its series at every step: a norm_stride, which
    # once set a coarser grid for the base's norms, is no key, in either
    # run, whatever its value
    err = _assert_run_refused(tmp_path, capsys, cfg)
    if "norm_stride" in json.dumps(cfg):
        assert "unknown key 'norm_stride'" in err


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


#: the settings that left the schema, each at its former default, by the
#: refusal that names it: sigma is norms.DEFAULT_SIGMA, c1 the calibrated
#: one, and the top-level snapshot_stride serves every run
REMOVED_SETTINGS = {
    "unknown key 'sigma' in config": {"sigma": 4.0},
    "unknown key 'c1' in config.budget": {"budget": {"c1": None}},
    "unknown key 'snapshot_stride' in config.perturbation": {
        "perturbation": {"snapshot_stride": 250}},
}


@pytest.mark.parametrize("cfg", [
    {"snapshot_stride": 50, "perturbation": {}, "budget": {"alpha": "x"}},
    {"snapshot_stride": 50, "perturbation": {}, "budget": {"c5": 0}},
    {"tolerance": {"C": None}}, {"tolerance": 5},
    {"L": 6.0},
    {"snapshot_stride": 50,
     "perturbation": {"initial": {"kind": "random", "decay": -1}}},
    {"snapshot_stride": 50,
     "perturbation": {"initial": {"kind": "random", "target_h1": "1"}}},
    {"snapshot_stride": 50, "perturbation": {}, "seed": -8},
    {"perturbation": 5},
    {"base": {"initial": {"kind": "vortex"}}},
    {"base": {"initial": {"kind": "taylor-green", "amplitude": None}}},
    {"base": {"forcing": {"expressions": ["0.5*sin(x2)", "0.5*sin(x1)"]}}},
    {"base": {"forcing": {"kind": "zero", "expressions": [
        "0.5*sin(x2)", "0.5*sin(x1)"]}}},
    {"base": {"forcing": {"kind": "expression", "expressions": [
        "0.5*sin(x2)", "0.5*sin(x1)"], "amplitude": 2.0}}},
    {"base": {"forcing": {"kind": "expression"}}},
    {"snapshot_stride": 50, "perturbation": {"forcing": {
        "kind": "expression", "expressions": ["0.5*sin(x3)", "0.5*sin(x1)"]}}},
    {"base": {"forcing": {"kind": "expression", "expressions": [
        "log(x1)", "0*x1"]}}},
    {"snapshot_stride": 50, "perturbation": {}, "direct_3d": "no"},
    {"direct_3d": True},
    {"scenario": 5},
    *REMOVED_SETTINGS.values()],
    ids=["string-alpha", "zero-c5", "null-tolerance-C", "number-tolerance",
         "taylor-green-off-2pi", "negative-decay",
         "string-target-h1", "negative-seed", "number-perturbation",
         "unknown-initial-kind", "null-amplitude", "forcing-without-kind",
         "zero-forcing-with-expressions", "unknown-expression-forcing-key",
         "expression-forcing-without-expressions",
         "two-component-perturbation-forcing", "forcing-not-finite",
         "string-direct-3d", "direct-3d-without-perturbation",
         "number-scenario", "sigma", "budget-c1",
         "perturbation-snapshot-stride"])
def test_cli_refuses_config_the_run_would_fail_on(tmp_path, capsys, cfg):
    # each used to pass parsing and then fail once the run had started,
    # with a traceback and exit 1 or after writing spec.json, or to run
    # without the force or the direct run the config names; a force that
    # is not finite on the grid ran and blew up at its first step.  A
    # setting that left the schema is an unknown key, at its former
    # default too
    err = _assert_run_refused(tmp_path, capsys, dict(SMALL, **cfg))
    for refusal, removed in REMOVED_SETTINGS.items():
        if cfg == removed:
            assert refusal in err


def test_cli_seed_is_checked_with_the_config(tmp_path, capsys):
    # --seed replaces the config's seed before the checks: a negative sum
    # with the random field's own seed 7 is refused like one in the config
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_PERT))
    code = cli.main(["run", "--config", str(cfg_path), "--seed", "-8",
                     "--out", str(tmp_path / "out")])
    assert code == exp.EXIT_ERROR
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()
    assert exp.parse_config(json.dumps(SMALL_PERT), seed=3)["seed"] == 3


@pytest.mark.parametrize("cfg", [
    {"N": 32, "windows": 1, "dt": 0.5, "snapshot_stride": 2},
    # dt*nu*kmax^2 is 80 on the 2D grid but 120 on the 3D one
    {"N": 16, "windows": 1, "dt": 0.625, "T": 1.25, "snapshot_stride": 2,
     "perturbation": {}}],
    ids=["base", "perturbation"])
def test_cli_refuses_unresolved_viscous_scale(tmp_path, capsys, cfg):
    err = _assert_run_refused(tmp_path, capsys, cfg)
    assert "viscous scale" in err


def test_combine_forcing():
    from torusflow.solver import ForcingSpec

    f = ForcingSpec(expressions=("sin(x1)", "0*x1"))
    g = ForcingSpec(expressions=("0*x1", "cos(x3)", "0*x1"))
    both = exp.combine_forcing(f, g)
    assert len(both.expressions) == 3
    assert "sin(x1)" in both.expressions[0]
    assert exp.combine_forcing(ForcingSpec(), ForcingSpec()).expressions == ()


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


@pytest.mark.parametrize("command, out", [
    (["run", "--scenario", "stability-smoke"], "file"),
    (["run", "--scenario", "stability-smoke"], "file/out"),
    (["calibrate", "--N", "8"], "file/x.json")],
    ids=["run-into-a-file", "run-under-a-file", "calibrate-under-a-file"])
def test_cli_refuses_an_unusable_out(tmp_path, capsys, command, out):
    # an output directory that is a file, or lies under one, used to end
    # in a FileExistsError or NotADirectoryError traceback and exit 1, the
    # code of a failed check
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert cli.main(command + ["--out", str(tmp_path / out)]) \
        == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


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


@pytest.mark.parametrize("config, argv, value", [
    ('{"windows": 1, "T": Infinity}', [], "Infinity"),
    ('{"windows": 1, "perturbation": {}, "budget": {"alpha": NaN}}', [],
     "NaN"),
    (None, ["calibrate", "--N", "8", "--L", "nan"], "nan"),
    (None, ["calibrate", "--L", "inf"], "inf"),
], ids=["config-infinity", "config-nan", "calibrate-nan", "calibrate-inf"])
def test_cli_refuses_non_finite_numbers(tmp_path, capsys, config, argv,
                                        value):
    # Python's json reads NaN and +-Infinity, and float() reads nan and
    # inf: each is a config error that names the value, before any run
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and value in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_meta_records_phase_times(tmp_path):
    base = dict(SMALL["base"], forcing={"kind": "expression", "expressions": [
        "1e-4*sin(x2)*cos(t)", "1e-4*sin(x1)*cos(t)"]})
    spec = exp.parse_config(json.dumps(dict(FORCED_PERT, base=base,
                                            direct_3d=True)))
    exp.run_experiment(spec, str(tmp_path / "out"))
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert set(meta["phases"]) == {"base", "perturbation", "analysis",
                                   "writing"}
    assert all(v > 0 for v in meta["phases"].values())
    assert sum(meta["phases"].values()) <= meta["wall_seconds"]
    # busy seconds of the base and direct runs in the forked child, beside
    # the parent's timeline
    workers = meta["workers"]
    assert set(workers) == {"base", "direct"}
    assert all(0 < v < meta["wall_seconds"] for v in workers.values())
    assert meta["steps_per_s"] > 0
    # every run evaluates its force exactly once per step time
    n = round(SMALL["T"] / SMALL["dt"])
    counts = meta["force_evaluations"]
    assert set(counts) == {"base", "perturbation", "direct"}
    assert all(c == n + 1 for c in counts.values())
    # the snapshot files each run streamed, as they lie in snapshots/
    for name, streamed in meta["snapshots"].items():
        files = list((tmp_path / "out" / name / "snapshots").iterdir())
        assert streamed == {"count": len(files),
                            "bytes": sum(f.stat().st_size for f in files)}
    assert set(meta["snapshots"]) == {"base", "perturbation", "direct"}
    assert all(s["count"] == 3 for s in meta["snapshots"].values())


def _artifacts(out: Path) -> dict:
    """{path relative to out: bytes} of every file of a run but meta.json."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "meta.json"}


def _forked_and_alone(spec, tmp_path, monkeypatch) -> dict:
    """The artifacts of spec's run, which must be those of the same run
    without os.fork, and the workers of the latter's meta.json."""
    exp.run_experiment(spec, str(tmp_path / "forked"))
    monkeypatch.delattr(os, "fork")
    exp.run_experiment(spec, str(tmp_path / "alone"))
    forked, alone = (_artifacts(tmp_path / name)
                     for name in ("forked", "alone"))
    assert list(alone) == list(forked)
    for name, data in forked.items():
        assert alone[name] == data, name
    meta = json.loads((tmp_path / "alone" / "meta.json").read_text())
    return forked, set(meta["workers"])


def test_one_process_fallback_writes_the_forked_artifacts(tmp_path,
                                                          monkeypatch):
    # without os.fork the base and direct runs are stepped in the run's
    # own process, to the same bytes
    spec = exp.parse_config(json.dumps(FORCED_DIRECT))
    forked, workers = _forked_and_alone(spec, tmp_path, monkeypatch)
    assert "perturbation/diagnostics.csv" in forked
    assert "direct/diagnostics.csv" in forked
    assert workers == {"base", "direct"}


def test_one_process_fallback_without_force_or_direct_run(tmp_path,
                                                          monkeypatch):
    # stability-smoke's physics at N=8: a zero force and no direct run, so
    # the base is the only worker
    spec = exp.parse_config(json.dumps({
        "scenario": "smoke-n8", "nu": 1.0, "dt": 2e-3, "T": 0.1,
        "windows": 2, "N": 8,
        "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005}},
        "snapshot_stride": 25, "perturbation": {}}))
    assert spec["perturbation"]["forcing"]["kind"] == "zero"
    assert not spec["direct_3d"]
    forked, workers = _forked_and_alone(spec, tmp_path, monkeypatch)
    assert "perturbation/diagnostics.csv" in forked
    assert not any(name.startswith("direct/") for name in forked)
    assert workers == {"base"}


def test_runs_never_pad_on_the_full_lattice(tmp_path, monkeypatch):
    # every norm a run records is read from its K-state (solver._Workspace):
    # field.physical_padded, patched to raise under every torusflow name
    # bound to it before the base's child forks, is called neither by run
    # nor by verify, in this process or in that child
    import sys
    from torusflow import field, norms

    def refuse(*args, **kwargs):
        raise AssertionError("field.physical_padded called")

    original = field.physical_padded
    patched = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "torusflow":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, refuse)
                patched.append(name)
    assert {"torusflow.field", "torusflow.norms"} <= set(patched)
    # the patch reaches the full-lattice norm report
    with pytest.raises(AssertionError, match="physical_padded"):
        norms.compute_norm_report(field.random_divfree_field(
            make_grid(2 * np.pi, 8, 2), 1))
    spec = exp.parse_config(json.dumps(FORCED_DIRECT))
    out = tmp_path / "out"
    assert exp.emit_report(exp.run_experiment(spec, str(out)))[1] \
        == exp.EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert set(meta["workers"]) == {"base", "direct"}
    assert exp.emit_report(exp.reverify(str(out)))[1] == exp.EXIT_OK


@pytest.mark.parametrize("forcing", [
    {"kind": "zero"},
    {"kind": "expression", "expressions": [
        "1e-6*sin(x3)", "1e-6*sin(x1)", "1e-6*sin(x2)"]}],
    ids=["zero", "steady"])
@pytest.mark.parametrize("direct_3d", [False, True],
                         ids=["alone", "direct"])
def test_run_forks_one_stepping_child(tmp_path, monkeypatch, forcing,
                                      direct_3d):
    # with or without the direct run, and under a zero force
    # (stability-smoke) or a steady one (hypothesis-violation) as under a
    # time-dependent one (test_meta_records_phase_times), a run forks one
    # child that steps runs, the base's, which steps the direct run too,
    # beside the one that draws the random initial perturbation.  B1 reads
    # the perturbation's forcing_l2_sq, the Parseval sum its own process
    # records
    started = []

    def worker(name, *args):
        started.append(name)
        return Worker(name, *args)

    monkeypatch.setattr(exp, "Worker", worker)
    monkeypatch.setattr(worker_module, "Worker", worker)  # the base's Stream
    spec = exp.parse_config(json.dumps(dict(
        SMALL, T=0.05, direct_3d=direct_3d, snapshot_stride=5,
        perturbation={"forcing": forcing})))
    out = tmp_path / "out"
    exp.run_experiment(spec, str(out))
    meta = json.loads((out / "meta.json").read_text())
    assert started == ["initial", "base"]
    assert set(meta["workers"]) == ({"base", "direct"} if direct_3d
                                    else {"base"})
    assert set(meta["force_evaluations"]) == ({"base", "perturbation",
                                               "direct"} if direct_3d
                                              else {"base", "perturbation"})
    g3 = make_grid(spec["L"], spec["N"], 3)
    cfg = SolverConfig(grid=g3, nu=spec["nu"], dt=spec["dt"],
                       t_end=spec["T"], T=spec["T"],
                       forcing=exp._build_forcing(forcing))
    recorded = load_trajectory(out / "perturbation", cfg,
                               "perturbation").diag["forcing_l2_sq"]
    assert (recorded == recorded[0]).all()
    assert (recorded == 0.0).all() == (forcing["kind"] == "zero")


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
def test_cli_sweep_member_fails_alone(tmp_path, capfd, parallel):
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
    # every member runs in a forked worker, which writes to the process's
    # stderr file descriptor
    assert "budget refused" in capfd.readouterr().err


# a base strong enough that e^(int A^2) of 4.27 (amplitude 1.0) and the L2
# lemma's e^(4 c3 L A5^2/(nu c1)) (2.0) are past the float range: run,
# verify and a sweep member used to end in OverflowError, with no verdict
# file (and the member recorded as a config error)
STRONG_BASE = {"N": 8, "T": 0.5, "windows": 1, "perturbation": {}}


def _strong_base(amplitude):
    return dict(STRONG_BASE, base={"initial": {"kind": "taylor-green",
                                               "amplitude": amplitude}})


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("amplitude", [1.0, 2.0])
def test_strong_base_is_analysed(tmp_path, capsys, amplitude):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_strong_base(amplitude)))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)])
    written = {name: (out / name).read_bytes()
               for name in exp.VERDICT_FILES.values()}
    reports = json.loads(written["inequalities.json"], parse_constant=_refuse)
    failed = [k for k, r in reports.items() if r["status"] == FAIL]
    assert code == (exp.EXIT_FAIL if failed else exp.EXIT_OK)
    assert all(est.INEQUALITIES[k].kind == est.CLAIM for k in failed)
    # 4.27's margin is -inf, written null, and its hypothesis is vacuous
    assert reports["4.27"]["status"] == VACUOUS
    assert reports["4.27"]["worst_margin"] is None
    assert cli.main(["verify", "--out", str(out)]) == code
    for name, text in written.items():
        assert (out / name).read_bytes() == text, name


def test_cli_sweep_member_with_a_strong_base(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(_strong_base(1.0), sweep=[{}])))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == exp.EXIT_OK
    assert (out / "sweep.csv").read_text().splitlines() \
        == ["member,exit_code,failed", f"{out / 'member_000'},0,False"]


@pytest.mark.parametrize("parallel", [0, -1])
def test_cli_sweep_refuses_parallel_below_one(tmp_path, capsys, parallel):
    # --parallel 0 used to run the members one after another and exit 0
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(SMALL, sweep=[{}])))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--parallel", str(parallel)]) == exp.EXIT_ERROR
    assert "--parallel must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"sweep": [{}],\n "nu": }', "line 2, column 8: Expecting value"),
    (json.dumps([SMALL]), "must be a JSON object"),
    (json.dumps(dict(SMALL, sweep=[3])), "'sweep' list of objects"),
    (json.dumps(dict(SMALL, sweep={"nu": 0.5})), "'sweep' list of objects")],
    ids=["not-json", "list", "member-number", "sweep-object"])
def test_cli_sweep_refuses_malformed_config(tmp_path, capsys, text, message):
    # each used to end in a traceback (JSONDecodeError, TypeError,
    # AttributeError) with exit 1, the code of a failed inequality
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(text)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out",
                     str(out)]) == exp.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1 and not out.exists()


def test_run_and_verify_do_not_import_scipy(tmp_path):
    # scipy is a test-only dependency; importing scipy.signal alone costs
    # about 1.3 s in every CLI process
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_PERT))
    out = str(tmp_path / "out")
    assert _modules_after_cli_import(
        ("scipy",), ["run", "--config", str(cfg_path), "--out", out],
        ["verify", "--out", out]) == "[]"


def _modules_after_cli_import(packages, *argvs):
    """The modules of the packages named in packages, and their submodules,
    that a fresh interpreter holds after importing torusflow.cli and running
    cli.main on each of argvs in turn, each to exit 0."""
    import subprocess
    import sys

    script = ("import sys\n"
              "import torusflow.cli\n"
              + "".join(f"assert torusflow.cli.main({argv!r}) == 0\n"
                        for argv in argvs)
              + "print(sorted(m for m in sys.modules if any(m == p or "
              f"m.startswith(p + '.') for p in {tuple(packages)!r})))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_benchmark_trace_installs(tmp_path):
    # bench/trace_cli.py wraps package functions by their names, all before
    # the command it traces runs: one that the package no longer has fails
    # its install, and every traced benchmark run (bench/run.py --trace 1)
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(root / "src"))
    stats = tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "trace_cli.py"), str(stats),
         "calibrate", "--N", "8"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "estimates.calibrate_constants" in json.loads(stats.read_text())


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
    # the direct run writes the one series the output checks read of it
    assert (out / "direct" / "diagnostics.csv").read_text().split("\n")[0] \
        == "t,l2_sq"
    for run in ("base", "perturbation", "direct"):
        # only the 2D base run records the L3 and W^1_sigma norms, in its
        # per-step table, and no run writes a table beside it
        norms = {"grad_l3_sq", "w1_sigma"} & set(_load_run(out, run).diag)
        assert len(norms) == (2 if run == "base" else 0), run
        assert not (out / run / "norms.csv").exists(), run
        paths = sorted((out / run / "snapshots").iterdir())
        assert len(paths) == 3, run
        for path in paths:
            snap = load_field(path)
            outside = snap.data[:, ~snap.grid.dealias_mask]
            assert not outside.any(), (run, path.name)


def test_every_run_snapshots_the_same_steps(tmp_path):
    # one snapshot_stride serves the base, perturbation and direct runs, so
    # the split and direct states are stored at the same times: every
    # stride-th step and the last, here steps 0, 4, 8 and 10
    out = tmp_path / "out"
    spec = exp.parse_config(json.dumps(dict(FORCED_DIRECT,
                                            snapshot_stride=4)))
    exp.run_experiment(spec, str(out))
    want = [exp._run_config(spec, "base").times[i] for i in (0, 4, 8, 10)]
    for run in exp.RUNS:
        stamps = [load_field(path).time_stamp
                  for path in sorted((out / run / "snapshots").iterdir())]
        assert stamps == want, run


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


def test_cli_import_loads_no_openssl():
    # importing OpenSSL (_hashlib) would add its load time to every CLI
    # process
    assert _modules_after_cli_import(("_hashlib",)) == "[]"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_run_and_verify_load_no_random_generator_or_openssl(
        command, forced_pert_out, tmp_path):
    # numpy.random loads OpenSSL (through secrets) and adds about 6 MB to a
    # process's peak RSS: parse_config is on the verify path, and run draws
    # its random initial perturbation in a worker of its own, so neither
    # the run's process nor a worker forked after it holds them
    out = tmp_path / "out"
    if command == "run":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_PERT))
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    else:
        shutil.copytree(forced_pert_out, out)
        argv = ["verify", "--out", str(out)]
    assert _modules_after_cli_import(("numpy.random", "_hashlib"),
                                     argv) == "[]"


def test_verify_ignores_the_former_hash_and_aborted_keys(tmp_path):
    # outputs written while runs stored config digests and summary.json's
    # aborted flag carry them still, outputs written while each trajectory
    # directory ended in a summary.json carry that, and outputs written
    # while each trajectory directory restated the spec carry a
    # config.json, here with another L: verify ignores them all and
    # rewrites the verdict files byte for byte
    out = tmp_path / "out"
    arts = exp.run_experiment(exp.parse_config(json.dumps(FORCED_DIRECT)),
                              str(out))
    former = {"meta.json": {"hash": "0123456789abcdef"}}
    for run, dim, label in (("base", 2, "2d_base"),
                            ("perturbation", 3, "perturbation"),
                            ("direct", 3, "full_3d")):
        (out / run / "config.json").write_text(json.dumps({"config": {
            "L": 3.0, "N": 8, "dim": dim, "nu": 0.5, "dt": 5e-3,
            "t_end": 0.05, "T": 0.05, "forcing_kind": "zero",
            "forcing_expressions": [], "snapshot_stride": 5, "sigma": 4.0,
            "label": label}, "hash": "fedcba9876543210"}))
        (out / run / "summary.json").write_text(json.dumps({
            "label": label, "final_time": 0.05, "snapshots": 2,
            "hash": "fedcba9876543210", "aborted": False}))
    for name, keys in former.items():
        path = out / name
        path.write_text(json.dumps(json.loads(path.read_text()) | keys))
    verdicts = {}
    for name in ("inequalities.json", "windows.csv"):
        verdicts[name] = (out / name).read_bytes()
        (out / name).unlink()
    assert cli.main(["verify", "--out", str(out)]) \
        == exp.emit_report(arts)[1]
    for name, data in verdicts.items():
        assert (out / name).read_bytes() == data, name


def test_margin_convergence_constant():
    coarse = {"a": InequalityReport("a", [0.0], [1.0], 0)}
    fine = {"a": InequalityReport("a", [0.0], [1.0 + 7.5e-7], 0)}
    C = cli.margin_convergence_constant(coarse, fine, 1e-3)
    assert C == pytest.approx(2 * 7.5e-7 / (0.75e-6), rel=1e-6)
    # a margin of a strong base can be +-inf (4.25, 4.27): inf - inf is
    # nan, which max() kept when it came first.  Such ids are left out,
    # whatever their order, and C is 1 when no id is left
    inf = {k: InequalityReport(k, [0.0], [m], 0)
           for k, m in (("4.25", math.inf), ("4.27", -math.inf))}
    for order in (inf | coarse, coarse | inf):
        assert cli.margin_convergence_constant(order, fine | inf, 1e-3) == C
    assert cli.margin_convergence_constant(inf, inf, 1e-3) == 1.0
    assert cli.margin_convergence_constant(
        inf, {"4.25": InequalityReport("4.25", [0.0], [1.0], 0)}, 1e-3) == 1.0


def test_run_dt_halving(tmp_path, capsys):
    # run --dt-halving repeats the experiment at dt/2 in <out>/half-dt,
    # which verifies on its own; a plain rerun into <out> removes it
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    assert cli.main(argv + ["--dt-halving"]) == exp.EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("dt-halving margin constant C = ")
    half = out / "half-dt"
    assert json.loads((half / "spec.json").read_text())["dt"] \
        == SMALL["dt"] / 2
    verdicts = {name: (half / name).read_bytes()
                for name in exp.VERDICT_FILES.values()}
    for name in verdicts:
        (half / name).unlink()
    assert cli.main(["verify", "--out", str(half)]) == exp.EXIT_OK
    for name, data in verdicts.items():
        assert (half / name).read_bytes() == data, name
    assert cli.main(argv) == exp.EXIT_OK
    assert not half.exists()


def test_run_dt_halving_fails_with_its_half_dt_run(tmp_path, capsys,
                                                   monkeypatch):
    # the dt/2 run checks at a four times tighter tolerance: a check that
    # fails there fails the run, which used to exit with the dt run's code
    run_experiment = exp.run_experiment

    def failing_at_half_dt(spec, out_dir):
        artifacts = run_experiment(spec, out_dir)
        if out_dir.endswith("half-dt"):
            artifacts.reports["3.3"] = InequalityReport("3.3", [0.0],
                                                        [-1.0], 0.0)
        return artifacts

    monkeypatch.setattr(exp, "run_experiment", failing_at_half_dt)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out),
                     "--dt-halving"]) == exp.EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL" not in lines[0]
    assert lines[-1] == "half-dt: FAIL: 3.3"
