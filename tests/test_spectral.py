"""Tests for grids, fields, spectral derivatives and dealiased products."""

import dataclasses
import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skdv
from skdv.spectral import (
    ComplexField,
    RealField,
    SpectralGrid,
    dealiased_product_samples,
    derivative_samples,
    h1_norm,
    integrate,
    l2_norm,
)


# The dealiased product as first written, allocating every array: the
# literal oracle that ``dealiased_product_samples`` must match bit for bit.

def upsample(grid, samples, factor=2):
    """Spectral interpolation of samples onto a grid refined by ``factor``."""
    n = grid.num_points
    fine = factor * n
    hat = np.fft.fft(samples)
    padded = np.zeros(fine, dtype=np.complex128)
    half = n // 2
    padded[:half] = hat[:half]
    padded[fine - half + 1 :] = hat[half + 1 :]
    # split the Nyquist coefficient symmetrically
    padded[half] = 0.5 * hat[half]
    padded[fine - half] = 0.5 * hat[half]
    return np.fft.ifft(padded) * factor


def downsample(fine_samples, n):
    """Spectral truncation of fine-grid samples back to n modes."""
    fine = fine_samples.shape[0]
    padded = np.fft.fft(fine_samples) * (n / fine)
    half = n // 2
    hat = np.zeros(n, dtype=np.complex128)
    hat[:half] = padded[:half]
    hat[half + 1 :] = padded[fine - half + 1 :]
    hat[half] = padded[half] + padded[fine - half]
    return np.fft.ifft(hat)


def literal_product(grid, factors):
    fine = np.ones(2 * grid.num_points, dtype=np.complex128)
    for f in factors:
        # np.multiply, not ``fine * upsample(...)``: from 256 KiB on, numpy
        # elides the temporary into ``up *= fine``, which swaps the operands,
        # and a complex multiply with FMA is not bitwise commutative
        fine = np.multiply(fine, upsample(grid, f, 2))
    return downsample(fine, grid.num_points)


def convolution_product(factors):
    """The dealiased product by direct O(N^2) convolution of the factors'
    Fourier coefficients on the modes -N/2..N/2 (the Nyquist coefficient
    split between the two ends), wrapped onto the 2N grid and truncated to
    N modes, the two Nyquist ends summed."""
    n = factors[0].shape[0]
    half = n // 2
    coeffs = np.ones(1, dtype=np.complex128)
    for f in factors:
        hat = np.fft.fft(f) / n
        nyquist = 0.5 * hat[half : half + 1]
        coeffs = np.convolve(coeffs, np.concatenate([nyquist, hat[half + 1 :], hat[:half], nyquist]))
    fine = np.zeros(2 * n, dtype=np.complex128)
    np.add.at(fine, (np.arange(coeffs.size) - len(factors) * half) % (2 * n), coeffs)
    hat = np.concatenate([fine[:half], [fine[half] + fine[2 * n - half]], fine[2 * n - half + 1 :]])
    return np.fft.ifft(hat * n)


class TestSpectralGrid:
    def test_basic_layout(self):
        grid = SpectralGrid(64, 8.0)
        assert grid.spacing == pytest.approx(0.25)
        assert grid.x[0] == -8.0
        assert grid.x[-1] == pytest.approx(8.0 - 0.25)
        assert 0.0 in grid.x

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SpectralGrid(100, 8.0)
        with pytest.raises(ValueError):
            SpectralGrid(0, 8.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SpectralGrid(64, -1.0)

    def test_equality_and_hash(self):
        assert SpectralGrid(64, 8.0) == SpectralGrid(64, 8.0)
        assert SpectralGrid(64, 8.0) != SpectralGrid(128, 8.0)
        assert hash(SpectralGrid(64, 8.0)) == hash(SpectralGrid(64, 8.0))

    def test_frozen_value(self):
        grid = SpectralGrid(64.0, 8)
        assert repr(grid) == "SpectralGrid(num_points=64, half_length=8.0)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.half_length = 4.0

    def test_nyquist_mask(self):
        grid = SpectralGrid(64, 8.0)
        # the derivative multiplier vanishes at the zero and Nyquist modes only
        assert np.flatnonzero(grid.ik == 0).tolist() == [0, 32]


class TestFields:
    def test_real_field_casts(self):
        grid = SpectralGrid(32, 4.0)
        f = RealField(grid, np.ones(32, dtype=int))
        assert f.samples.dtype == np.float64

    def test_rejects_wrong_length(self):
        grid = SpectralGrid(32, 4.0)
        with pytest.raises(ValueError):
            RealField(grid, np.ones(16))

    def test_rejects_non_finite(self):
        grid = SpectralGrid(32, 4.0)
        bad = np.ones(32)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            RealField(grid, bad)
        with pytest.raises(ValueError):
            ComplexField(grid, bad.astype(complex))

    @pytest.mark.parametrize("kind,name,inline", [
        pytest.param(RealField, "abs_sq", lambda f: f.samples**2, id="real-abs_sq"),
        pytest.param(RealField, "abs_sq", lambda f: np.abs(f.samples) ** 2,
                     id="real-abs_sq-of-abs"),
        pytest.param(RealField, "cube", lambda f: f.samples**3, id="real-cube"),
        pytest.param(RealField, "dx_abs_sq", lambda f: f.dx.real**2, id="real-dx_abs_sq"),
        pytest.param(ComplexField, "abs", lambda f: np.abs(f.samples), id="complex-abs"),
        pytest.param(ComplexField, "abs_sq", lambda f: np.abs(f.samples) ** 2,
                     id="complex-abs_sq"),
        pytest.param(ComplexField, "abs_fourth", lambda f: (np.abs(f.samples) ** 2) ** 2,
                     id="complex-abs_fourth"),
        pytest.param(ComplexField, "dx_abs_sq", lambda f: np.abs(f.dx) ** 2,
                     id="complex-dx_abs_sq"),
        pytest.param(ComplexField, "times_conj_dx", lambda f: f.samples * np.conj(f.dx),
                     id="complex-times_conj_dx"),
    ])
    def test_derived_arrays_cached_and_read_only(self, kind, name, inline):
        # each shared array is its inline expression bit for bit, built once
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(64)
        if kind is ComplexField:
            samples = samples + 1j * rng.standard_normal(64)
        f = kind(grid, samples)
        cached = getattr(f, name)
        assert cached.dtype == inline(f).dtype
        assert cached.tobytes() == inline(f).tobytes()
        assert getattr(f, name) is cached
        assert not cached.flags.writeable


class TestDerivative:
    def test_sine_derivatives(self):
        grid = SpectralGrid(128, np.pi)
        k0 = 3.0
        out = derivative_samples(grid, np.sin(k0 * grid.x))
        assert np.max(np.abs(out - k0 * np.cos(k0 * grid.x))) < 1e-11 * k0

    def test_gaussian_derivative(self):
        grid = SpectralGrid(512, 16.0)
        exact = -2.0 * grid.x * np.exp(-grid.x**2)
        assert np.max(np.abs(derivative_samples(grid, np.exp(-grid.x**2)) - exact)) < 1e-11

    def test_complex_plane_wave(self):
        grid = SpectralGrid(64, np.pi)
        f = np.exp(2j * grid.x)
        assert np.max(np.abs(derivative_samples(grid, f) - 2j * f)) < 1e-12

    def test_ik_table_matches_direct_expression(self):
        # bit for bit 1j*k times a float mask zeroing the Nyquist mode: the
        # table that the literal stepper of test_integrator builds itself
        for n in (2, 64, 8192):
            grid = SpectralGrid(n, 8.0)
            mask = np.ones(n)
            mask[n // 2] = 0.0
            assert grid.ik.tobytes() == (1j * grid.wavenumbers * mask).tobytes()

    @pytest.mark.parametrize("kind", [RealField, ComplexField])
    def test_field_dx_cached_and_read_only(self, kind):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(64)
        if kind is ComplexField:
            samples = samples + 1j * rng.standard_normal(64)
        f = kind(grid, samples)
        assert f.dx.dtype == np.complex128
        assert f.dx.tobytes() == derivative_samples(grid, f.samples).tobytes()
        assert f.dx is f.dx
        assert not f.dx.flags.writeable
        with pytest.raises(ValueError):
            f.dx[0] = 0.0

    def test_real_in_real_out(self):
        # the Nyquist mode is zeroed, so the derivative of real samples is
        # real up to round-off, even for rough data
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(0)
        out = derivative_samples(grid, rng.standard_normal(64))
        assert np.max(np.abs(out.imag)) <= 1e-12 * np.max(np.abs(out.real))


class TestDealiasedProduct:
    def test_quadratic_exact(self):
        # sin(a x) * sin(b x) has bandwidth a+b; exact when that fits in N
        grid = SpectralGrid(64, np.pi)
        out = dealiased_product_samples(grid, [np.sin(10.0 * grid.x), np.sin(12.0 * grid.x)])
        exact = np.sin(10.0 * grid.x) * np.sin(12.0 * grid.x)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_factor_count(self):
        grid = SpectralGrid(32, 4.0)
        for count in (1, 3, 4):
            with pytest.raises(ValueError):
                dealiased_product_samples(grid, [np.ones(32)] * count)

    def test_samples_variant_matches(self):
        # real factors give a real product up to round-off, so the real
        # part is the product of real fields
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(1)
        out = dealiased_product_samples(grid, [rng.standard_normal(64) for _ in range(2)])
        assert np.max(np.abs(out.imag)) <= 1e-12 * np.max(np.abs(out.real))

    def test_repeated_factor_bit_identical(self):
        # a factor passed twice is upsampled once; the product must equal,
        # bit for bit, the one with every factor upsampled separately
        grid = SpectralGrid(128, 8.0)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(128)
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)

        for f in (w, u):
            assert np.all(
                dealiased_product_samples(grid, [f, f]) == literal_product(grid, [f, f.copy()]))

    CASES = ["real_2", "complex_2", "mixed_2", "repeated_2"]

    @pytest.mark.parametrize("case, n", [pytest.param(c, 128, id=c) for c in CASES]
                             + [pytest.param(c, 8192, id=f"{c}-8192") for c in CASES])
    def test_matches_literal_formula(self, case, n):
        # the product, bit for bit, as written with a ones seed that every
        # upsampled factor multiplies
        grid = SpectralGrid(n, 8.0)
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal(n) for _ in range(2))
        z, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        factors = {
            "real_2": [a, b], "complex_2": [z, y], "mixed_2": [a, z], "repeated_2": [a, a],
        }[case]
        literal = literal_product(grid, factors)
        assert dealiased_product_samples(grid, factors).tobytes() == literal.tobytes()

    def test_out_is_returned_and_may_be_a_factor(self):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        buf = np.empty(64, dtype=np.complex128)
        assert dealiased_product_samples(grid, [a, b], out=buf) is buf
        assert buf.tobytes() == dealiased_product_samples(grid, [a, b]).tobytes()
        # out may be one of the factors, also one given twice
        for factors in ([a + 1j * b, b], [a + 1j * b] * 2):
            want = dealiased_product_samples(grid, factors)
            got = dealiased_product_samples(grid, factors, out=factors[0])
            assert got is factors[0] and got.tobytes() == want.tobytes()

    def test_padded_middle_stays_zero(self):
        # a full-band product, whose fine-grid spectrum fills every mode,
        # must leave nothing behind in the work arrays of its grid
        grid = SpectralGrid(64, np.pi)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        dealiased_product_samples(grid, [noise, np.conj(noise)])
        narrow = [np.sin(3.0 * grid.x), np.cos(5.0 * grid.x)]
        fresh = dealiased_product_samples(SpectralGrid(64, np.pi), narrow)
        assert dealiased_product_samples(grid, narrow).tobytes() == fresh.tobytes()

    def test_grids_interleaved(self):
        rng = np.random.default_rng(8)
        cases = [(SpectralGrid(n, 8.0), [rng.standard_normal(n) for _ in range(3)])
                 for n in (64, 128)]
        separate = [[dealiased_product_samples(SpectralGrid(g.num_points, 8.0), fs[k : k + 2])
                     for k in (0, 1)] for g, fs in cases]
        interleaved = [[], []]
        for k in (0, 1):
            for i, (g, fs) in enumerate(cases):
                interleaved[i].append(dealiased_product_samples(g, fs[k : k + 2]))
        for got, want in zip(interleaved, separate):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([64, 256, 8192]), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 4), min_size=2, max_size=2))
    def test_random_factor_lists(self, n, seed, picks):
        # picks 0 and 1 draw a fresh real or complex factor, 2 to 4 repeat
        # an earlier factor object (a fresh real one if there is none yet)
        rng = np.random.default_rng(seed)
        factors = []
        for p in picks:
            if p < 2 or not factors:
                f = rng.standard_normal(n)
                factors.append(f + 1j * rng.standard_normal(n) if p == 1 else f)
            else:
                factors.append(factors[p % len(factors)])
        got = dealiased_product_samples(SpectralGrid(n, 8.0), factors)
        assert got.tobytes() == literal_product(SpectralGrid(n, 8.0), factors).tobytes()
        scale = np.prod([np.max(np.abs(f)) for f in factors])
        assert np.max(np.abs(got - convolution_product(factors))) < 1e-14 * scale

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the FFT scratch is kept resident through glibc's mallopt")
    def test_fft_scratch_stays_resident(self):
        # a product on a grid with N >= 8192 keeps the FFT scratch
        # resident for every later transform of the process; under glibc's
        # default allocator each 16 384-point transform faults in 96 fresh
        # pages.  A fresh process, because the heap history of this one
        # decides whether the scratch is trimmed.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from skdv.spectral import SpectralGrid, dealiased_product_samples
            rng = np.random.default_rng(9)
            dealiased_product_samples(SpectralGrid(8192, 1024.0),
                                      [rng.standard_normal(8192), rng.standard_normal(8192)])
            x = rng.standard_normal(16384) + 0j
            y = np.empty_like(x)
            np.fft.fft(x, out=y)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                np.fft.fft(x, out=y)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(skdv.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 20


class TestMultiRowTransforms:
    """The stepper and the dealiased product pair independent transforms
    into one multi-row ``numpy.fft`` call; that changes no bit only while
    each row of such a call equals the one-row transform of that row."""

    @pytest.mark.parametrize("n", [64, 1024, 8192, 16384])
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "in_place", "column_slice"])
    @pytest.mark.parametrize("transform", ["fft", "ifft"])
    def test_rows_match_one_row_calls(self, n, rows, layout, transform):
        rng = np.random.default_rng(n + rows)
        data = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        fn = getattr(np.fft, transform)
        want = [fn(row).tobytes() for row in data]
        if layout == "contiguous":
            got = fn(data)
        elif layout == "in_place":
            got = data.copy()
            fn(got, out=got)
        else:
            # the first half of 2n-point rows, transformed in place, as the
            # dealiased product takes its factors' spectra
            fine = np.zeros((rows, 2 * n), dtype=np.complex128)
            got = fine[:, :n]
            got[...] = data
            fn(got, out=got)
        assert [row.tobytes() for row in got] == want


class TestResampling:
    def test_upsample_roundtrip(self):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(64)
        fine = upsample(grid, f, 2)
        back = downsample(fine, 64)
        assert np.max(np.abs(back.real - f)) < 1e-12

    def test_upsample_interpolates(self):
        grid = SpectralGrid(64, np.pi)
        f = np.sin(3.0 * grid.x)
        fine = upsample(grid, f, 2)
        x_fine = -np.pi + (np.pi / 64) * np.arange(128)
        assert np.max(np.abs(fine.real - np.sin(3.0 * x_fine))) < 1e-12


class TestQuadrature:
    def test_gaussian_integral(self):
        grid = SpectralGrid(256, 16.0)
        assert integrate(np.exp(-grid.x**2), grid) == pytest.approx(np.sqrt(np.pi), rel=1e-14)

    def test_l2_and_h1(self):
        grid = SpectralGrid(256, 16.0)
        f = RealField(grid, np.exp(-grid.x**2 / 2.0))
        # ||f||^2 = sqrt(pi), ||f'||^2 = sqrt(pi)/2
        assert l2_norm(f) ** 2 == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert h1_norm(f) ** 2 == pytest.approx(1.5 * np.sqrt(np.pi), rel=1e-13)

    def test_raw_samples_form(self):
        grid = SpectralGrid(64, 8.0)
        assert integrate(np.ones(64), grid) == pytest.approx(16.0)
