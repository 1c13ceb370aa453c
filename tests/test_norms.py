"""Norm computations against independent quadrature and closed forms."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from oracles import (embedding_ratio_l6_h1, hessian_l2_norm_sq, lp_norm,
                     poincare_ratio, streamed_padded_magnitude)
from torusflow import cli, make_grid
from torusflow import estimates as est
from torusflow import experiments as exp
from torusflow.field import (Field, mean_free, physical_field,
                             random_divfree_field, spectral_data)
from torusflow.norms import (DEFAULT_SIGMA, _padded_magnitude,
                             compute_norm_report, grad_l2_norm_sq,
                             gradient_field, l2_norm_sq,
                             sharp_dissipation_h2, sharp_poincare_h1,
                             sharp_poincare_h2, sobolev_norm_sq)
from torusflow.solver import _read_table, _write_table, diag_columns

seeds = st.integers(min_value=0, max_value=10_000)


def _sin_field(grid, m=1):
    x1, _ = np.broadcast_arrays(*grid.coords)
    return physical_field(grid, np.sin(m * x1))


def test_l2_oracle_quadrature(grid2):
    # ||sin x1||_L2^2 over the 2D box: independent 1D quadrature oracle
    f = _sin_field(grid2)
    oracle = 2 * np.pi * quad(lambda x: np.sin(x) ** 2, 0, 2 * np.pi)[0]
    assert l2_norm_sq(f) == pytest.approx(oracle, rel=1e-12)


def test_l6_oracle_quadrature(grid2):
    f = _sin_field(grid2)
    integral = 2 * np.pi * quad(lambda x: np.abs(np.sin(x)) ** 6,
                                0, 2 * np.pi)[0]
    assert lp_norm(f, 6) == pytest.approx(integral ** (1 / 6), rel=1e-10)


def test_l3_oracle_quadrature(grid2):
    f = _sin_field(grid2, m=2)
    integral = 2 * np.pi * quad(lambda x: np.abs(np.sin(2 * x)) ** 3,
                                0, 2 * np.pi)[0]
    # |u|^3 has kinks at the zeros, so collocation quadrature converges
    # only algebraically; the padded grid gets a few digits
    assert lp_norm(f, 3, pad_factor=4) == pytest.approx(integral ** (1 / 3),
                                                        rel=1e-3)


def test_linf_norm(grid2):
    f = _sin_field(grid2)
    assert lp_norm(f, np.inf, pad_factor=8) == pytest.approx(1.0, abs=1e-4)


def test_lp_rejects_bad_exponent(grid2):
    with pytest.raises(ValueError):
        lp_norm(_sin_field(grid2), 0.5)


@given(seed=seeds, c=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_lp_homogeneity(grid2, seed, c):
    f = random_divfree_field(grid2, seed)
    g = Field(grid2, c * f.spectral())
    assert lp_norm(g, 3) == pytest.approx(abs(c) * lp_norm(f, 3),
                                          rel=1e-10, abs=1e-12)


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_h1_is_l2_plus_gradient(grid2, seed):
    f = random_divfree_field(grid2, seed)
    h1 = sobolev_norm_sq(f, 1)
    assert h1 == pytest.approx(l2_norm_sq(f) + grad_l2_norm_sq(f), rel=1e-13)


def test_h2_single_mode_closed_form(grid2):
    # u = sin(2 x1): |k|^2 = 4, H2 weight 1 + 4 + 16
    f = _sin_field(grid2, m=2)
    l2 = l2_norm_sq(f)
    assert sobolev_norm_sq(f, 2) == pytest.approx(21 * l2, rel=1e-12)


def test_sobolev_rejects_high_order(grid2):
    with pytest.raises(ValueError):
        sobolev_norm_sq(_sin_field(grid2), 3)


def test_parseval_matches_collocation(grid3):
    rng = np.random.default_rng(2)
    phys = rng.standard_normal((3, 16, 16, 16))
    f = physical_field(grid3, phys)
    quadrature = grid3.dx**3 * np.sum(phys**2)
    assert l2_norm_sq(f) == pytest.approx(quadrature, rel=1e-12)


def test_poincare_lowest_mode_sharp(grid2):
    f = _sin_field(grid2)
    assert poincare_ratio(f, "l2") == pytest.approx(grid2.kappa**2,
                                                    abs=1e-13)
    assert poincare_ratio(f, "h1") == pytest.approx(
        sharp_poincare_h1(grid2), abs=1e-13)


def test_poincare_rejects_nonmeanfree(grid2):
    x1, _ = np.broadcast_arrays(*grid2.coords)
    f = physical_field(grid2, 1.0 + np.sin(x1))
    with pytest.raises(ValueError):
        poincare_ratio(f)
    with pytest.raises(ValueError):
        poincare_ratio(physical_field(grid2, np.zeros((1, 16, 16))))


def test_sharp_constants_values(grid2, grid2_rect):
    assert sharp_poincare_h1(grid2) == pytest.approx(0.5)
    assert sharp_poincare_h2(grid2) == pytest.approx(1.0 / 3.0)
    assert sharp_dissipation_h2(grid2) == pytest.approx(2.0 / 3.0)
    k2 = grid2_rect.kappa**2
    assert sharp_poincare_h1(grid2_rect) == pytest.approx(k2 / (1 + k2))


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_sharp_h2_constants_are_lower_bounds(grid2, seed):
    f = mean_free(random_divfree_field(grid2, seed, spectrum_decay=1.0))
    h2 = sobolev_norm_sq(f, 2)
    lap_sq = np.float64(0.0)
    spec = f.spectral()
    lap_sq = float(grid2.volume * np.sum(
        grid2.hermitian_weight * grid2.k_sq**2 * np.abs(spec) ** 2))
    assert lap_sq >= sharp_poincare_h2(grid2) * h2 * (1 - 1e-12)
    dissip = grad_l2_norm_sq(f) + lap_sq
    assert dissip >= sharp_dissipation_h2(grid2) * h2 * (1 - 1e-12)


def test_w1_sigma_requires_sigma_above_3(grid2):
    # 3.8 needs sigma > 3, and the report is taken at the one sigma
    assert DEFAULT_SIGMA > 3
    assert compute_norm_report(_sin_field(grid2))["w1_sigma"] > 0


#: the keys of compute_norm_report, in order
REPORT_KEYS = ("time_stamp", "grad_l3_sq", "w1_sigma")


def test_norm_report_csv_schema(grid2, tmp_path):
    # the base run's diagnostics.csv ends with the report's two norms, and
    # a row of them reads back bit for bit
    rep = compute_norm_report(_sin_field(grid2))
    assert tuple(rep) == REPORT_KEYS
    columns = diag_columns("2d_base")
    assert columns[0] == "t" and tuple(columns[-2:]) == REPORT_KEYS[1:]
    table = {"t": [rep["time_stamp"]]} | {c: [rep.get(c, 1.0)]
                                          for c in columns[1:]}
    path = tmp_path / "diagnostics.csv"
    _write_table(path, table, columns)
    header, row = path.read_text().splitlines()
    assert header == ",".join(columns)
    assert len(row.split(",")) == len(columns)
    # fixed order: identical report -> identical row
    again = compute_norm_report(_sin_field(grid2))
    assert row.split(",")[-2:] == [repr(float(again[c]))
                                   for c in REPORT_KEYS[1:]]
    back = _read_table(path, columns)
    assert {c: float(back[c][0]) for c in REPORT_KEYS[1:]} \
        == {c: rep[c] for c in REPORT_KEYS[1:]}


@pytest.mark.parametrize("dim", [2, 3])
def test_norm_report_matches_standalone_norms(dim):
    grid = make_grid(2 * np.pi, 8, dim)
    f = random_divfree_field(grid, seed=5, spectrum_decay=1.5)
    rep = compute_norm_report(f)
    grad = gradient_field(f)
    expected = {"time_stamp": f.time_stamp,
                "grad_l3_sq": lp_norm(grad, 3) ** 2,
                "w1_sigma": lp_norm(f, DEFAULT_SIGMA)
                + lp_norm(grad, DEFAULT_SIGMA)}
    assert tuple(rep) == tuple(expected) == REPORT_KEYS
    for name, value in expected.items():
        assert rep[name] == pytest.approx(value, rel=1e-14, abs=0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("ncomp", [3, 9])
def test_streamed_padded_magnitude_is_exact(dim, ncomp):
    # random physical values: every Nyquist plane is nonzero
    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(10 * dim + ncomp)
    spec = spectral_data(grid, rng.standard_normal((ncomp,) + grid.shape_phys))
    nyquist = (slice(None),) + (slice(None),) * (dim - 1) + (grid.N // 2,)
    assert np.abs(spec[nyquist]).min() > 0
    # two different fields in a row, both results held: the replaced path
    # (tests/oracles.py) pads one component at a time through shared
    # scratch arrays, and a stale one would show in either
    fields = (Field(grid, spec),
              physical_field(grid, rng.standard_normal(
                  (ncomp,) + grid.shape_phys)))
    got = [_padded_magnitude(f) for f in fields]
    held = [streamed_padded_magnitude(f) for f in fields]
    for mag, ref in zip(got, held):
        np.testing.assert_array_equal(mag, ref)
    grad = gradient_field(Field(grid, spec[:3]))
    np.testing.assert_array_equal(_padded_magnitude(grad),
                                  streamed_padded_magnitude(grad))


@pytest.mark.parametrize("dim", [2, 3])
def test_parseval_weights_match_per_call_products(dim):
    # the replaced path: hermitian_weight * weight formed on every call
    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(dim)
    f = physical_field(grid, rng.standard_normal((dim,) + grid.shape_phys))
    mag = np.sum(np.abs(f.spectral()) ** 2, axis=0)

    def per_call(weight):
        return float(grid.volume * np.sum(grid.hermitian_weight * weight
                                          * mag))

    assert l2_norm_sq(f) == per_call(1.0)
    assert grad_l2_norm_sq(f) == per_call(grid.k_sq)
    for s in range(3):
        assert sobolev_norm_sq(f, s) == per_call(grid.sobolev_weights[s])


def test_hessian_parseval_matches_second_derivative_field(grid3):
    rng = np.random.default_rng(3)
    for f in (random_divfree_field(grid3, seed=2, spectrum_decay=1.0),
              Field(grid3, spectral_data(
                  grid3, rng.standard_normal((3,) + grid3.shape_phys)))):
        reference = l2_norm_sq(gradient_field(gradient_field(f)))
        assert hessian_l2_norm_sq(f) == pytest.approx(reference, rel=1e-14,
                                                      abs=0)


def test_calibrate_constants_match_stacked_reference(grid3):
    # reference formulas: every component padded at once and the
    # 27-component second-derivative field; each ratio of the former
    # sampling ensemble stays below the bounds
    def stacked_lp(f, p):
        cell = (grid3.L / (2 * grid3.N)) ** 3
        return (cell * np.sum(_padded_magnitude(f) ** p)) ** (1 / p)

    cal = est.calibrate_constants(grid3)
    for s in range(100):
        u = random_divfree_field(grid3, s, spectrum_decay=1.0 + 2.0 * (s % 5)
                                 / 4.0)
        assert stacked_lp(u, 6) ** 2 / sobolev_norm_sq(u, 1) <= cal.c3
        g = gradient_field(u)
        den = np.sqrt(np.sqrt(l2_norm_sq(gradient_field(g)))
                      * np.sqrt(l2_norm_sq(g)))
        assert stacked_lp(g, 3) / den <= cal.c_interp


def test_trajectory_norms_ordering(tmp_path, capsys):
    # a saved series whose rows are out of time order or cut short, or hold
    # a time or a value that is not a number, is refused when verify loads
    # it (exit 2), for the base's norm columns and the other per-step
    # columns alike; a nan l2_sq used to be checked, and failed as 3.2 and
    # 3.3 (exit 1)
    run = tmp_path / "run"
    spec = exp.parse_config(json.dumps({
        "scenario": "ordering", "nu": 0.5, "dt": 5e-3, "T": 0.05,
        "windows": 1, "N": 8,
        "base": {"initial": {"kind": "taylor-green", "amplitude": 0.1}}}))
    exp.run_experiment(spec, str(run))
    assert cli.main(["verify", "--out", str(run)]) == exp.EXIT_OK
    capsys.readouterr()

    def swap(lines):
        lines[1], lines[2] = lines[2], lines[1]

    def drop_last(lines):
        lines.pop()

    def nan_time(lines):
        lines[2] = "nan" + lines[2][lines[2].index(","):]

    def nan_in(column):
        def edit(lines):
            cells = lines[2].split(",")
            cells[lines[0].split(",").index(column)] = "nan"
            lines[2] = ",".join(cells)
        return edit

    clock, finite = "not at the run's 10 steps of dt=0.005", "not finite"
    name = "diagnostics.csv"
    cases = [(swap, clock), (drop_last, clock), (nan_time, finite),
             (nan_in("l2_sq"), finite), (nan_in("grad_l3_sq"), finite),
             (nan_in("w1_sigma"), finite)]
    for case, (edit, message) in enumerate(cases):
        out = tmp_path / f"case{case}"
        shutil.copytree(run, out)
        path = out / "base" / name
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["verify", "--out", str(out)]) == exp.EXIT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert "run the experiment again" in err and err.count("\n") == 1


def test_embedding_ratio_positive(grid3):
    f = random_divfree_field(grid3, seed=4)
    r = embedding_ratio_l6_h1(f)
    assert 0 < r < 1
