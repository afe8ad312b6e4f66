"""Periodic spectral discretization, where every transform of the package
runs: grids, fields, Fourier multipliers (the first spectral derivative
among them), dealiased products of sample arrays, quadrature and norms.

The real line is approximated by the periodic box [-L, L).  The quadratic
products of the stepper, |u|^2 and v^2, are formed on a zero-padded fine
grid (2x the modes), so they are alias-free; the cubic term enters the
stepper as a pointwise phase and needs no product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "SpectralGrid",
    "RealField",
    "ComplexField",
    "fourier_multiply",
    "derivative_samples",
    "dealiased_product_samples",
    "integrate",
    "l2_norm",
    "h1_norm",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L) with N points (N a power of two, at
    least 2: the dealiased products need a Nyquist mode).

    Exposes the collocation points ``x``, the spacing ``dx = 2L/N``, the
    wavenumber table ``k_j = pi*j/L`` in standard FFT ordering and the
    first-derivative multiplier ``ik``.
    """

    num_points: int
    half_length: float

    def __post_init__(self):
        n = int(self.num_points)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"num_points must be a power of two >= 2, got {self.num_points}")
        if not (self.half_length > 0):
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        object.__setattr__(self, "num_points", n)
        object.__setattr__(self, "half_length", float(self.half_length))
        object.__setattr__(self, "spacing", 2.0 * self.half_length / n)
        object.__setattr__(self, "x", -self.half_length + self.spacing * np.arange(n))
        # k_j = 2*pi*fftfreq = pi*j/L in FFT order
        object.__setattr__(self, "wavenumbers", 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing))
        # the Nyquist mode has no well-defined sign; zero it
        object.__setattr__(self, "ik", 1j * self.wavenumbers * (np.arange(n) != n // 2))

    @cached_property
    def _product_work(self) -> np.ndarray:
        """The work array of ``dealiased_product_samples`` on this grid, built
        on first use: two 2N fine rows, one per distinct factor.  A grid with
        N >= 8192 first makes the FFT scratch stay resident."""
        if self.num_points >= _RESIDENT_SCRATCH_MIN_N:
            _keep_fft_scratch_resident()
        return np.empty((2, 2 * self.num_points), np.complex128)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _Samples:
    """Samples of dtype ``DTYPE`` on a spectral grid, and arrays derived
    from them, each computed on first use and kept read-only, so that the
    diagnostics of one snapshot share them.  Each is the exact expression
    its docstring gives, so sharing changes no bit."""

    grid: SpectralGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=self.DTYPE)
        if samples.shape != (self.grid.num_points,):
            raise ValueError(
                f"samples length {samples.shape} does not match grid size {self.grid.num_points}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    @cached_property
    def dx(self) -> np.ndarray:
        """First derivative, ``derivative_samples(grid, samples)``: complex."""
        return _read_only(derivative_samples(self.grid, self.samples))


@dataclass(frozen=True)
class RealField(_Samples):
    """Real-valued samples on a spectral grid."""

    DTYPE = np.float64

    @cached_property
    def abs_sq(self) -> np.ndarray:
        """``samples ** 2``, equal bit for bit to ``np.abs(samples) ** 2``."""
        return _read_only(self.samples**2)

    @cached_property
    def cube(self) -> np.ndarray:
        """``samples ** 3``."""
        return _read_only(self.samples**3)

    @cached_property
    def dx_abs_sq(self) -> np.ndarray:
        """``dx.real ** 2``, free of the imaginary round-off of ``dx``."""
        return _read_only(self.dx.real**2)


@dataclass(frozen=True)
class ComplexField(_Samples):
    """Complex-valued samples on a spectral grid."""

    DTYPE = np.complex128

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
    def dx_abs_sq(self) -> np.ndarray:
        """``np.abs(dx) ** 2``."""
        return _read_only(np.abs(self.dx) ** 2)

    @cached_property
    def times_conj_dx(self) -> np.ndarray:
        """``samples * np.conj(dx)``."""
        return _read_only(self.samples * np.conj(self.dx))


Field = RealField | ComplexField


def fourier_multiply(
    samples: np.ndarray, multiplier: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``ifft(fft(samples) * multiplier)`` along the last axis; complex
    output, written into ``out`` (complex, the shape of ``samples``) when
    given, which may be ``samples`` itself.  The spectrum is taken into
    ``out`` and multiplied in place, as the first operand."""
    hat = np.fft.fft(samples, out=out)
    hat *= multiplier
    return np.fft.ifft(hat, out=hat)


def derivative_samples(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """First spectral derivative of raw samples; complex output.  The
    Nyquist mode is zeroed, so real samples give a real derivative up to
    round-off."""
    return fourier_multiply(samples, grid.ik)


# numpy.fft allocates a scratch array, 16 bytes a point, on every call.
# Under glibc's default allocator a 16 384-point complex transform faults
# in 96 fresh pages per call and an 8 192-point one none (ru_minflt over
# repeated calls), so grids whose 2N-point products reach 16 384 points
# keep that scratch resident.
_RESIDENT_SCRATCH_MIN_N = 8192
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@cache
def _keep_fft_scratch_resident() -> None:
    """Once per process, set glibc's mmap threshold to 32 MiB and its trim
    threshold to 64 MiB (where glibc's own dynamic threshold stops), so the
    FFT scratch of each transform reuses resident heap pages instead of
    faulting in fresh ones.  The setting holds for every later allocation
    of the process and switches the dynamic threshold off: freed blocks of
    up to 32 MiB, and up to 64 MiB of free heap top, stay resident instead
    of going back to the system.  A no-op where libc has no ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def dealiased_product_samples(
    grid: SpectralGrid, factors: list[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Alias-free pointwise product of the 2 sample arrays in ``factors``;
    complex output, written into ``out`` (complex, N points) when given.
    ``out`` may be one of the factors: both are read before it is written.

    Each factor is interpolated onto the 2x grid (its spectrum zero-padded,
    the Nyquist coefficient split in half, times 2), the two are multiplied
    there, and the product is truncated back to N modes (times 1/2, the two
    Nyquist halves summed).  Each factor fills one 2N fine row: its N-point
    spectrum is taken in the row's first half and padded in place, two
    distinct factors together in one two-row N-point ``fft`` and one two-row
    2N-point ``ifft`` (each row bit for bit a one-row transform).  A factor
    given twice (the same array object) is interpolated once, in one row.
    All of it runs in the grid's work array, built on the first call, so a
    later call allocates nothing but a fresh ``out``.
    """
    if len(factors) != 2:
        raise ValueError(f"dealiased product takes 2 factors, got {len(factors)}")
    n = grid.num_points
    fine_n, half = 2 * n, n // 2
    fine = grid._product_work
    if factors[1] is factors[0]:
        fine = fine[:1]
    for f, row in zip(factors, fine):
        row[:n] = f
    spectra = fine[:, :n]
    np.fft.fft(spectra, out=spectra)
    # the padded spectrum, in place: the upper modes move to the top of the
    # row, the Nyquist coefficient is split between the two ends, and the
    # middle, which the last call left full, is zeroed
    fine[:, fine_n - half + 1 :] = fine[:, half + 1 : n]
    fine[:, half] *= 0.5
    fine[:, fine_n - half] = fine[:, half]
    fine[:, half + 1 : fine_n - half] = 0.0
    np.fft.ifft(fine, out=fine)
    fine *= 2
    product = fine[0]
    np.multiply(product, fine[-1], out=product)

    # truncated in place: the first N entries become the N-point spectrum
    np.fft.fft(product, out=product)
    product *= 0.5
    product[half + 1 : n] = product[fine_n - half + 1 :]
    product[half] += product[fine_n - half]
    return np.fft.ifft(product[:n], out=out)


def integrate(samples: np.ndarray, grid: SpectralGrid) -> float:
    """Rectangle-rule quadrature dx * sum(samples) of real samples;
    spectrally accurate for smooth periodic integrands."""
    return grid.spacing * float(samples.sum())


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.spacing * f.abs_sq.sum()))


def h1_norm(f: Field) -> float:
    """H1 norm with the convention ||f||_H1^2 = ||f||^2 + ||f'||^2."""
    sq = f.grid.spacing * (f.abs_sq.sum() + f.dx_abs_sq.sum())
    return float(np.sqrt(sq))
