"""Periodic spectral discretization: grids, fields, derivatives, dealiased
products and quadrature.

The real line is approximated by the periodic box [-L, L).  All nonlinear
products are formed on a zero-padded fine grid (2x the modes) so that both
quadratic and cubic nonlinearities are alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SpectralGrid",
    "RealField",
    "ComplexField",
    "derivative",
    "dealiased_product",
    "integrate",
    "l2_norm",
    "h1_norm",
]


class SpectralGrid:
    """Uniform periodic grid on [-L, L) with N points (N a power of two).

    Exposes the collocation points ``x``, the spacing ``dx = 2L/N`` and the
    wavenumber table ``k_j = pi*j/L`` in standard FFT ordering.
    """

    def __init__(self, num_points: int, half_length: float):
        n = int(num_points)
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError(f"num_points must be a positive power of two, got {num_points}")
        if not (half_length > 0):
            raise ValueError(f"half_length must be positive, got {half_length}")
        self.num_points = n
        self.half_length = float(half_length)
        self.spacing = 2.0 * self.half_length / n
        self.x = -self.half_length + self.spacing * np.arange(n)
        # k_j = 2*pi*fftfreq = pi*j/L in FFT order
        self.wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        # Nyquist mode has no well-defined sign; zero it for odd derivatives
        self.odd_derivative_mask = np.ones(n)
        self.odd_derivative_mask[n // 2] = 0.0
        self._multipliers = {}

    def derivative_multiplier(self, order: int) -> np.ndarray:
        """(ik)^order, Nyquist zeroed for odd orders; built on first use."""
        if order not in self._multipliers:
            m = (1j * self.wavenumbers) ** order
            self._multipliers[order] = m * self.odd_derivative_mask if order % 2 else m
        return self._multipliers[order]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectralGrid)
            and other.num_points == self.num_points
            and other.half_length == self.half_length
        )

    def __hash__(self) -> int:
        return hash((self.num_points, self.half_length))

    def __repr__(self) -> str:
        return f"SpectralGrid(num_points={self.num_points}, half_length={self.half_length})"


def _validate_samples(grid: SpectralGrid, samples: np.ndarray) -> None:
    if samples.shape != (grid.num_points,):
        raise ValueError(
            f"samples length {samples.shape} does not match grid size {grid.num_points}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("field contains non-finite samples")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Samples:
    """Arrays derived from the samples, each computed on first use and kept
    read-only, so that the diagnostics of one snapshot share them.  Each is
    the exact expression its docstring gives, so sharing changes no bit."""

    @cached_property
    def dx(self) -> np.ndarray:
        """First derivative, ``derivative_samples(grid, samples, 1)``: complex."""
        return _read_only(derivative_samples(self.grid, self.samples, 1))

    @cached_property
    def dx_abs_sq(self) -> np.ndarray:
        """``np.abs(dx) ** 2``."""
        return _read_only(np.abs(self.dx) ** 2)


@dataclass(frozen=True)
class RealField(_Samples):
    """Real-valued samples on a spectral grid."""

    grid: SpectralGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        _validate_samples(self.grid, samples)
        object.__setattr__(self, "samples", samples)

    @cached_property
    def abs_sq(self) -> np.ndarray:
        """``samples ** 2``, equal bit for bit to ``np.abs(samples) ** 2``."""
        return _read_only(self.samples**2)

    @cached_property
    def cube(self) -> np.ndarray:
        """``samples ** 3``."""
        return _read_only(self.samples**3)

    @cached_property
    def dx_sq(self) -> np.ndarray:
        """``dx.real ** 2``: the square of the real derivative, without the
        imaginary round-off that ``dx_abs_sq`` keeps."""
        return _read_only(self.dx.real**2)


@dataclass(frozen=True)
class ComplexField(_Samples):
    """Complex-valued samples on a spectral grid."""

    grid: SpectralGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        _validate_samples(self.grid, samples)
        object.__setattr__(self, "samples", samples)

    @cached_property
    def abs(self) -> np.ndarray:
        """``np.abs(samples)``."""
        return _read_only(np.abs(self.samples))

    @cached_property
    def abs_sq(self) -> np.ndarray:
        """``np.abs(samples) ** 2``."""
        return _read_only(self.abs**2)

    @cached_property
    def abs_fourth(self) -> np.ndarray:
        """``abs_sq ** 2``."""
        return _read_only(self.abs_sq**2)

    @cached_property
    def times_conj_dx(self) -> np.ndarray:
        """``samples * np.conj(dx)``."""
        return _read_only(self.samples * np.conj(self.dx))


Field = RealField | ComplexField


def _discard_imag(values: np.ndarray) -> np.ndarray:
    scale = max(float(np.max(np.abs(values.real))), 1.0)
    residue = float(np.max(np.abs(values.imag)))
    if residue > 1e-12 * scale:
        raise ValueError(f"imaginary residue {residue:.3e} too large for a real field")
    return values.real.copy()


def derivative_samples(grid: SpectralGrid, samples: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of raw samples; complex output."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    return np.fft.ifft(np.fft.fft(samples) * grid.derivative_multiplier(order))


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (1..3).

    Real input yields real output; the Nyquist mode is zeroed for odd
    orders so the operator maps real fields to real fields.
    """
    out = derivative_samples(f.grid, f.samples, order)
    if isinstance(f, RealField):
        return RealField(f.grid, _discard_imag(out))
    return ComplexField(f.grid, out)


def _pad_spectrum(hat: np.ndarray, fine: int) -> np.ndarray:
    n = hat.shape[0]
    padded = np.zeros(fine, dtype=np.complex128)
    half = n // 2
    padded[:half] = hat[:half]
    padded[fine - half + 1 :] = hat[half + 1 :]
    # split the Nyquist coefficient symmetrically
    padded[half] = 0.5 * hat[half]
    padded[fine - half] = 0.5 * hat[half]
    return padded


def _truncate_spectrum(padded: np.ndarray, n: int) -> np.ndarray:
    fine = padded.shape[0]
    half = n // 2
    hat = np.zeros(n, dtype=np.complex128)
    hat[:half] = padded[:half]
    hat[half + 1 :] = padded[fine - half + 1 :]
    hat[half] = padded[half] + padded[fine - half]
    return hat


def upsample(grid: SpectralGrid, samples: np.ndarray, factor: int = 2) -> np.ndarray:
    """Spectral interpolation of samples onto a grid refined by ``factor``."""
    n = grid.num_points
    fine = factor * n
    hat = np.fft.fft(samples)
    return np.fft.ifft(_pad_spectrum(hat, fine)) * factor


def downsample(fine_samples: np.ndarray, n: int) -> np.ndarray:
    """Spectral truncation of fine-grid samples back to n modes."""
    fine = fine_samples.shape[0]
    hat = np.fft.fft(fine_samples) * (n / fine)
    return np.fft.ifft(_truncate_spectrum(hat, n))


def dealiased_product_samples(grid: SpectralGrid, factors: list[np.ndarray]) -> np.ndarray:
    """Alias-free pointwise product of 2 or 3 sample arrays; complex output.
    A factor given more than once (the same array object) is upsampled once."""
    if len(factors) not in (2, 3):
        raise ValueError(f"dealiased product takes 2 or 3 factors, got {len(factors)}")
    upsampled = {}
    fine = None
    for f in factors:
        if id(f) not in upsampled:
            upsampled[id(f)] = upsample(grid, f, 2)
        fine = upsampled[id(f)] if fine is None else fine * upsampled[id(f)]
    return downsample(fine, grid.num_points)


def dealiased_product(fields: list[Field]) -> Field:
    """Pointwise product of 2 or 3 fields computed on a 2x zero-padded grid.

    Exact whenever the combined bandwidth of the factors fits within 2N
    modes; in particular a triple product of N/3-band-limited fields is
    alias-free, which the 2/3 truncation rule would not give for cubics.
    """
    if len(fields) not in (2, 3):
        raise ValueError(f"dealiased product takes 2 or 3 fields, got {len(fields)}")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("dealiased product requires all fields on the same grid")
    out = dealiased_product_samples(grid, [f.samples for f in fields])
    if all(isinstance(f, RealField) for f in fields):
        return RealField(grid, _discard_imag(out))
    return ComplexField(grid, out)


def integrate(f: Field | np.ndarray, grid: SpectralGrid | None = None):
    """Rectangle-rule quadrature dx * sum(samples).

    Spectrally accurate for smooth periodic integrands.  Accepts either a
    field or raw samples with an explicit grid.
    """
    if grid is None:
        grid, samples = f.grid, f.samples
    else:
        samples = np.asarray(f)
    total = grid.spacing * samples.sum()
    if np.iscomplexobj(samples):
        return complex(total)
    return float(total)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.spacing * f.abs_sq.sum()))


def h1_norm(f: Field) -> float:
    """H1 norm with the convention ||f||_H1^2 = ||f||^2 + ||f'||^2."""
    sq = f.grid.spacing * (f.abs_sq.sum() + f.dx_abs_sq.sum())
    return float(np.sqrt(sq))
