"""Tests for grids, fields, spectral derivatives and dealiased products."""

import numpy as np
import pytest

from skdv.spectral import (
    ComplexField,
    RealField,
    SpectralGrid,
    dealiased_product,
    dealiased_product_samples,
    derivative,
    derivative_samples,
    downsample,
    h1_norm,
    integrate,
    l2_norm,
    upsample,
)


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

    def test_nyquist_mask(self):
        grid = SpectralGrid(64, 8.0)
        assert grid.odd_derivative_mask[32] == 0.0
        assert grid.odd_derivative_mask.sum() == 63


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


class TestDerivative:
    def test_sine_derivatives(self):
        grid = SpectralGrid(128, np.pi)
        k0 = 3.0
        f = RealField(grid, np.sin(k0 * grid.x))
        for order, exact in [
            (1, k0 * np.cos(k0 * grid.x)),
            (2, -(k0**2) * np.sin(k0 * grid.x)),
            (3, -(k0**3) * np.cos(k0 * grid.x)),
        ]:
            out = derivative(f, order)
            scale = max(np.max(np.abs(exact)), 1.0)
            assert np.max(np.abs(out.samples - exact)) < 1e-11 * scale

    def test_gaussian_derivative(self):
        grid = SpectralGrid(512, 16.0)
        f = RealField(grid, np.exp(-grid.x**2))
        exact = -2.0 * grid.x * np.exp(-grid.x**2)
        assert np.max(np.abs(derivative(f, 1).samples - exact)) < 1e-11

    def test_complex_plane_wave(self):
        grid = SpectralGrid(64, np.pi)
        f = ComplexField(grid, np.exp(2j * grid.x))
        out = derivative(f, 1)
        assert np.max(np.abs(out.samples - 2j * f.samples)) < 1e-12

    def test_invalid_order(self):
        grid = SpectralGrid(32, 4.0)
        with pytest.raises(ValueError):
            derivative(RealField(grid, np.ones(32)), 4)

    def test_multipliers_match_direct_expression(self):
        # built once per grid, bit for bit the (ik)^order of a direct evaluation
        grid = SpectralGrid(64, 8.0)
        for order in (1, 2, 3):
            direct = (1j * grid.wavenumbers) ** order
            if order % 2 == 1:
                direct = direct * grid.odd_derivative_mask
            assert grid.derivative_multiplier(order).tobytes() == direct.tobytes()
            assert grid.derivative_multiplier(order) is grid.derivative_multiplier(order)

    @pytest.mark.parametrize("kind", [RealField, ComplexField])
    def test_field_dx_cached_and_read_only(self, kind):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(64)
        if kind is ComplexField:
            samples = samples + 1j * rng.standard_normal(64)
        f = kind(grid, samples)
        assert f.dx.dtype == np.complex128
        assert f.dx.tobytes() == derivative_samples(grid, f.samples, 1).tobytes()
        assert f.dx is f.dx
        assert not f.dx.flags.writeable
        with pytest.raises(ValueError):
            f.dx[0] = 0.0

    def test_real_in_real_out(self):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(0)
        f = RealField(grid, rng.standard_normal(64))
        assert isinstance(derivative(f, 1), RealField)
        assert isinstance(derivative(f, 3), RealField)


class TestDealiasedProduct:
    def test_quadratic_exact(self):
        # sin(a x) * sin(b x) has bandwidth a+b; exact when that fits in N
        grid = SpectralGrid(64, np.pi)
        f = RealField(grid, np.sin(10.0 * grid.x))
        g = RealField(grid, np.sin(12.0 * grid.x))
        out = dealiased_product([f, g])
        exact = np.sin(10.0 * grid.x) * np.sin(12.0 * grid.x)
        assert np.max(np.abs(out.samples - exact)) < 1e-12

    def test_cubic_no_alias(self):
        # k0 = 16, N = 64: the 3*k0 = 48 harmonic aliases onto -16 in a
        # naive pointwise cube, contaminating the k0 mode itself
        grid = SpectralGrid(64, np.pi)
        k0 = 16.0
        f = RealField(grid, np.cos(k0 * grid.x))
        out = dealiased_product([f, f, f])
        # cos^3 = (3 cos k0 x + cos 3 k0 x)/4; the 3k0 mode exceeds the band
        # and is truncated, the k0 part must be exact
        hat = np.fft.fft(out.samples) / 64
        assert hat[16].real == pytest.approx(3.0 / 8.0, abs=1e-12)
        naive = np.fft.fft(f.samples**3) / 64
        assert abs(naive[16].real - 3.0 / 8.0) > 0.1  # aliasing really occurs

    def test_grid_mismatch(self):
        f = RealField(SpectralGrid(32, 4.0), np.ones(32))
        g = RealField(SpectralGrid(64, 4.0), np.ones(64))
        with pytest.raises(ValueError):
            dealiased_product([f, g])

    def test_factor_count(self):
        grid = SpectralGrid(32, 4.0)
        f = RealField(grid, np.ones(32))
        with pytest.raises(ValueError):
            dealiased_product([f])

    def test_samples_variant_matches(self):
        grid = SpectralGrid(64, 8.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        fa, fb = RealField(grid, a), RealField(grid, b)
        assert np.allclose(
            dealiased_product([fa, fb]).samples,
            dealiased_product_samples(grid, [a, b]).real,
        )

    def test_repeated_factor_bit_identical(self):
        # a factor passed twice is upsampled once; the product must equal,
        # bit for bit, the one with every factor upsampled separately
        grid = SpectralGrid(128, 8.0)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(128)
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)

        def separate(factors):
            fine = np.ones(256, dtype=np.complex128)
            for f in factors:
                fine = fine * upsample(grid, f, 2)
            return downsample(fine, 128)

        assert np.all(dealiased_product_samples(grid, [w, w]) == separate([w, w.copy()]))
        cubic = [u, u, np.conj(u)]
        assert np.all(dealiased_product_samples(grid, cubic) == separate(cubic))


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
        f = RealField(grid, np.exp(-grid.x**2))
        assert integrate(f) == pytest.approx(np.sqrt(np.pi), rel=1e-14)

    def test_l2_and_h1(self):
        grid = SpectralGrid(256, 16.0)
        f = RealField(grid, np.exp(-grid.x**2 / 2.0))
        # ||f||^2 = sqrt(pi), ||f'||^2 = sqrt(pi)/2
        assert l2_norm(f) ** 2 == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert h1_norm(f) ** 2 == pytest.approx(1.5 * np.sqrt(np.pi), rel=1e-13)

    def test_raw_samples_form(self):
        grid = SpectralGrid(64, 8.0)
        assert integrate(np.ones(64), grid) == pytest.approx(16.0)
