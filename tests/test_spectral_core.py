"""Grid, transforms, calculus operators, projection, dealiasing."""

import json
import pickle
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import mean, physical_padded_per_component
from torusflow import make_grid
from torusflow.field import (Field, derivative_data, divergence_linf,
                             extrude_field, leray_data, load_field,
                             mean_free, physical_field, physical_padded,
                             random_divfree_field, save_field,
                             spectral_derivative)

seeds = st.integers(min_value=0, max_value=10_000)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 16, 4)
    with pytest.raises(ValueError):
        make_grid(-1.0, 16, 2)
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 15, 2)
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 2, 2)


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_pickles_by_its_parameters(dim):
    grid = make_grid(4.0, 16, dim)
    cached = ("modes", "k", "k_sq", "sobolev_weights", "k_deriv",
              "k_sq_deriv_divisor", "hermitian_weight", "dealias_mask",
              "coords")
    for name in cached:
        getattr(grid, name)
    data = pickle.dumps(grid)
    assert len(data) < 1024
    back = pickle.loads(data)
    assert back == grid
    assert not set(cached) & set(vars(back))
    for name in cached:
        want, got = getattr(grid, name), getattr(back, name)
        if isinstance(want, tuple):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_array_equal(got, want)


def test_grid_lattice(grid2):
    assert grid2.kappa == pytest.approx(1.0)
    assert grid2.k_sq.shape == (16, 9)
    assert grid2.k_sq[0, 0] == 0.0
    # hermitian weights: 1 at kz=0 and Nyquist, 2 between
    assert grid2.hermitian_weight[0, 0] == 1.0
    assert grid2.hermitian_weight[0, -1] == 1.0
    assert grid2.hermitian_weight[0, 3] == 2.0
    # 2/3-rule cutoff at N//3
    assert grid2.dealias_mask[0, 5]
    assert not grid2.dealias_mask[0, 6]


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_round_trip(grid2, seed):
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((2, 16, 16))
    spec = physical_field(grid2, phys).spectral()
    back = Field(grid2, spec).physical()
    assert np.abs(back - phys).max() < 1e-13


def test_k0_is_mean(grid2):
    rng = np.random.default_rng(0)
    phys = rng.standard_normal((2, 16, 16))
    f = physical_field(grid2, phys)
    assert mean(f) == pytest.approx(phys.mean(axis=(1, 2)), abs=1e-14)


def test_derivative_single_mode(grid2):
    x1, x2 = np.broadcast_arrays(*grid2.coords)
    f = physical_field(grid2, np.sin(3 * x1) * np.cos(2 * x2))
    d1 = spectral_derivative(f, 0).physical()
    expect = 3 * np.cos(3 * x1) * np.cos(2 * x2)
    assert np.abs(d1 - expect).max() < 1e-12
    d2 = spectral_derivative(spectral_derivative(f, 1), 1).physical()
    expect = -4 * np.sin(3 * x1) * np.cos(2 * x2)
    assert np.abs(d2 - expect).max() < 1e-12


def test_derivative_keeps_fields_real(grid2):
    # odd derivatives of the pure Nyquist mode must be dropped
    x1, _ = np.broadcast_arrays(*grid2.coords)
    f = physical_field(grid2, np.cos(8 * x1))
    d = spectral_derivative(f, 0).physical()
    assert np.abs(np.imag(d)).max() == 0.0
    assert np.abs(d).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_derivative_on_k_deriv_matches_zeroed_nyquist_plane(dim):
    # the replaced derivative_data: i k on grid.k, then the axis' Nyquist
    # plane set to zero; the data is not band-limited
    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(dim)
    spec = physical_field(
        grid, rng.standard_normal((2,) + grid.shape_phys)).spectral()
    for axis in range(dim):
        nyq = [slice(None)] * (dim + 1)
        nyq[axis + 1] = grid.N // 2
        nyq = tuple(nyq)
        assert np.abs(spec[nyq]).max() > 1e-3
        ref = spec * (1j * grid.k[axis])
        ref[nyq] = 0.0
        np.testing.assert_array_equal(derivative_data(grid, spec, axis), ref)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_leray_idempotent_and_divfree(grid3, seed):
    rng = np.random.default_rng(seed)
    f = physical_field(grid3, rng.standard_normal((3, 16, 16, 16)))
    p = Field(grid3, leray_data(grid3, f.spectral()))
    assert divergence_linf(p) < 1e-13
    twice = leray_data(grid3, p.spectral())
    assert np.abs(twice - p.spectral()).max() < 1e-14


def _leray_oracle(grid, spec):
    """The Leray projection as written before its divisor was cached and
    its intermediates could be passed in."""
    k_sq = sum(ka**2 for ka in grid.k_deriv)
    k_sq = np.where(k_sq > 0, k_sq, 1.0)
    kdotv = np.zeros(grid.shape_spec, dtype=complex)
    term = np.empty(grid.shape_spec, dtype=complex)
    for ax in range(grid.dim):
        kdotv += np.multiply(grid.k_deriv[ax], spec[ax], out=term)
    out = np.empty_like(spec)
    for ax in range(grid.dim):
        np.multiply(grid.k_deriv[ax], kdotv, out=term)
        term /= k_sq
        np.subtract(spec[ax], term, out=out[ax])
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_leray_data_matches_oracle_bitwise(dim):
    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(dim)
    shape = (dim,) + grid.shape_spec
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Nyquist planes on every axis carry data
    for ax in range(dim):
        index = [slice(None)] * (dim + 1)
        index[ax + 1] = grid.N // 2
        assert np.all(spec[tuple(index)] != 0)
    want = _leray_oracle(grid, spec).tobytes()
    assert leray_data(grid, spec).tobytes() == want
    out = np.empty_like(spec)
    assert leray_data(grid, spec, out=out) is out
    assert out.tobytes() == want
    in_place = spec.copy()
    assert leray_data(grid, in_place, out=in_place) is in_place
    assert in_place.tobytes() == want


def test_leray_keeps_mean(grid2):
    phys = np.ones((2, 16, 16))
    phys[1] = -2.0
    p = leray_data(grid2, physical_field(grid2, phys).spectral())
    assert mean(Field(grid2, p)) == pytest.approx([1.0, -2.0])


def test_leray_fixes_divfree_field(grid2):
    f = random_divfree_field(grid2, seed=3)
    again = leray_data(grid2, f.spectral())
    assert np.abs(again - f.spectral()).max() < 1e-15


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_dealias_and_meanfree_idempotent(grid2, seed):
    rng = np.random.default_rng(seed)
    f = physical_field(grid2, rng.standard_normal((2, 16, 16)))
    d = f.spectral() * grid2.dealias_mask
    assert np.abs(d * grid2.dealias_mask - d).max() == 0.0
    m = mean_free(f)
    assert np.abs(mean(m)).max() < 1e-15
    assert np.abs(mean_free(m).spectral() - m.spectral()).max() == 0.0


def test_derivative_commutes_with_projection(grid3):
    f = physical_field(grid3,
                       np.random.default_rng(5).standard_normal((3,) + (16,) * 3))
    a = spectral_derivative(
        Field(grid3, leray_data(grid3, f.spectral())), 0)
    b = leray_data(grid3, spectral_derivative(f, 0).spectral())
    assert np.abs(a.spectral() - b).max() < 1e-13


def test_random_divfree_field_reproducible(grid3):
    a = random_divfree_field(grid3, seed=42, target_h1=1.0)
    b = random_divfree_field(grid3, seed=42, target_h1=1.0)
    assert np.array_equal(a.data, b.data)
    assert divergence_linf(a) < 1e-12
    assert np.abs(mean(a)).max() < 1e-15


def test_physical_padded_interpolates_exactly(grid2):
    x1, x2 = np.broadcast_arrays(*grid2.coords)
    f = physical_field(grid2, np.sin(2 * x1) * np.cos(3 * x2))
    vals = physical_padded(f, 2)
    M = 2 * grid2.N
    x = np.arange(M) * grid2.L / M
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    assert np.abs(vals[0] - np.sin(2 * X1) * np.cos(3 * X2)).max() < 1e-12
    with pytest.raises(ValueError, match="pad factor"):
        physical_padded(f, 1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("factor", [2, 3])
def test_physical_padded_matches_resample(dim, factor):
    # the replaced path: scipy.signal.resample on physical values, per axis
    from scipy.signal import resample

    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(10 * dim + factor)
    f = physical_field(grid, rng.standard_normal((3,) + grid.shape_phys))
    nyq = (slice(None),) + (grid.N // 2,) * dim
    assert np.abs(f.spectral()[nyq]).max() > 1e-3   # not band-limited
    ref = f.physical()
    for ax in range(1, dim + 1):
        ref = resample(ref, factor * grid.N, axis=ax)
    vals = physical_padded(f, factor)
    assert vals.shape == ref.shape
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


def _padded_reference(field, factor):
    """The replaced physical_padded: every component padded at once, each
    stage into fresh arrays."""
    grid = field.grid
    M, h = factor * grid.N, grid.N // 2
    vals = field.spectral()
    for ax in range(1, grid.dim):
        shape = list(vals.shape)
        shape[ax] = M
        padded = np.zeros(shape, dtype=complex)
        src = np.moveaxis(vals, ax, 0)
        dst = np.moveaxis(padded, ax, 0)
        dst[:h] = src[:h]
        dst[M - h + 1:] = src[h + 1:]
        dst[h] = dst[M - h] = 0.5 * src[h]
        vals = np.fft.ifft(padded, axis=ax, norm="forward")
    padded = np.zeros(vals.shape[:-1] + (M // 2 + 1,), dtype=complex)
    padded[..., :h] = vals[..., :h]
    padded[..., h] = 0.5 * vals[..., h].real
    return np.fft.irfft(padded, n=M, axis=-1, norm="forward")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("factor", [2, 3])
def test_physical_padded_matches_fresh_array_path(dim, factor):
    # results of consecutive calls on different fields, held at once, must
    # each equal the fresh-array path and the replaced per-component path
    # with shared scratch (tests/oracles.py) bit for bit
    grid = make_grid(2 * np.pi, 8, dim)
    rng = np.random.default_rng(100 * dim + factor)
    fields = [physical_field(grid, rng.standard_normal((n,) + grid.shape_phys))
              for n in (3, 1, 3)]
    held = [physical_padded(f, factor) for f in fields]
    assert not np.shares_memory(held[0], held[2])
    for f, vals in zip(fields, held):
        np.testing.assert_array_equal(vals, _padded_reference(f, factor))
        np.testing.assert_array_equal(
            vals, physical_padded_per_component(f, factor))


def test_extrude_field(grid2, grid3):
    f = random_divfree_field(grid2, seed=1)
    lifted = extrude_field(f, grid3)
    assert lifted.ncomp == 3
    assert np.abs(lifted.physical()[2]).max() == 0.0
    # x3-invariance
    phys = lifted.physical()
    assert np.abs(phys[:, :, :, 0:1] - phys).max() == 0.0
    assert divergence_linf(lifted) < 1e-13


def test_save_load_round_trip(tmp_path, grid2):
    f = random_divfree_field(grid2, seed=9)
    f.time_stamp = 1.25
    path = tmp_path / "snap.npz"
    save_field(path, f)
    g = load_field(path)
    assert g.grid == grid2
    assert g.time_stamp == 1.25
    assert g.data.tobytes() == f.data.tobytes()


def _snapshot_meta(f, version):
    """The meta member of a snapshot of f in format version 1 or 2."""
    meta = {"version": version, "L": f.grid.L, "N": f.grid.N,
            "dim": f.grid.dim, "ncomp": f.ncomp}
    if version == 1:
        meta |= {"representation": "spectral", "divergence_free": True}
    return meta | {"time_stamp": f.time_stamp}


def test_load_field_reads_uncompressed_and_deflated(tmp_path, grid3):
    # an uncompressed archive with the same version-2 members reads as the
    # deflated one save_field writes
    f = random_divfree_field(grid3, seed=4)
    f.time_stamp = 0.375
    meta = _snapshot_meta(f, 2)
    np.savez(tmp_path / "plain.npz", meta=np.array(json.dumps(meta)),
             data=f.data)
    save_field(tmp_path / "deflated.npz", f)
    with zipfile.ZipFile(tmp_path / "deflated.npz") as zf:
        assert {i.compress_type for i in zf.infolist()} \
            == {zipfile.ZIP_DEFLATED}
    assert (tmp_path / "deflated.npz").stat().st_size \
        < (tmp_path / "plain.npz").stat().st_size
    plain = load_field(tmp_path / "plain.npz")
    deflated = load_field(tmp_path / "deflated.npz")
    for g in (plain, deflated):
        assert (g.grid, g.time_stamp) == (grid3, 0.375)
        assert g.data.dtype == f.data.dtype and g.data.shape == f.data.shape
    assert plain.data.tobytes() == deflated.data.tobytes() == f.data.tobytes()


def test_load_field_refuses_a_version_1_snapshot(tmp_path, grid2):
    # version 1's data were spectral coefficients too, but a snapshot of
    # another format version is refused, not guessed at
    f = random_divfree_field(grid2, seed=5)
    path = tmp_path / "v1.npz"
    np.savez_compressed(path, meta=np.array(json.dumps(_snapshot_meta(f, 1))),
                        data=f.data)
    with pytest.raises(ValueError, match="unsupported snapshot version 1"):
        load_field(path)
