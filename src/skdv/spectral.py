"""Periodic spectral discretization: grids, fields, spectral derivatives of
sample arrays, dealiased products of sample arrays, quadrature and norms.

The real line is approximated by the periodic box [-L, L).  All nonlinear
products are formed on a zero-padded fine grid (2x the modes) so that both
quadratic and cubic nonlinearities are alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "SpectralGrid",
    "RealField",
    "ComplexField",
    "derivative_samples",
    "dealiased_product_samples",
    "integrate",
    "l2_norm",
    "h1_norm",
]


class SpectralGrid:
    """Uniform periodic grid on [-L, L) with N points (N a power of two, at
    least 2: the dealiased products need a Nyquist mode).

    Exposes the collocation points ``x``, the spacing ``dx = 2L/N`` and the
    wavenumber table ``k_j = pi*j/L`` in standard FFT ordering.
    """

    def __init__(self, num_points: int, half_length: float):
        n = int(num_points)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"num_points must be a power of two >= 2, got {num_points}")
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
        self._product_work = None

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


def derivative_samples(grid: SpectralGrid, samples: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of raw samples; complex output.  The Nyquist
    mode is zeroed for odd orders, so real samples give a real derivative
    up to round-off."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    return np.fft.ifft(np.fft.fft(samples) * grid.derivative_multiplier(order))


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


def _product_work(grid: SpectralGrid):
    """The work arrays of ``dealiased_product_samples`` on ``grid``, built on
    first use: the 2N padded spectrum, whose middle is zero and never
    written, and the 2N fine buffers, at most three, added as a product
    needs them.  A grid with N >= 8192 first makes the FFT scratch stay
    resident."""
    if grid._product_work is None:
        if grid.num_points >= _RESIDENT_SCRATCH_MIN_N:
            _keep_fft_scratch_resident()
        grid._product_work = (np.zeros(2 * grid.num_points, np.complex128), [])
    return grid._product_work


def dealiased_product_samples(
    grid: SpectralGrid, factors: list[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Alias-free pointwise product of 2 or 3 sample arrays; complex output,
    written into ``out`` (complex, N points) when given.  ``out`` may be one
    of the factors: every factor is read before it is written.

    Each factor is interpolated onto the 2x grid (its spectrum zero-padded,
    the Nyquist coefficient split in half, times 2), the factors are
    multiplied left to right there, and the product is truncated back to N
    modes (times 1/2, the two Nyquist halves summed).  A factor given more
    than once (the same array object) is interpolated once.  All of it runs
    in the grid's work arrays, built on the first call, so a later call
    allocates nothing but a fresh ``out``.
    """
    if len(factors) not in (2, 3):
        raise ValueError(f"dealiased product takes 2 or 3 factors, got {len(factors)}")
    n = grid.num_points
    fine_n, half = 2 * n, n // 2
    padded, fine = _product_work(grid)

    def fine_buffer(i):
        if i == len(fine):
            fine.append(np.empty(fine_n, np.complex128))
        return fine[i]

    upsampled = {}
    for f in factors:
        if id(f) not in upsampled:
            # the N-point spectrum is formed in the first half of the fine
            # buffer that the interpolated factor then fills
            up = upsampled[id(f)] = fine_buffer(len(upsampled))
            spectrum = up[:n]
            spectrum[...] = f
            np.fft.fft(spectrum, out=spectrum)
            padded[:half] = spectrum[:half]
            padded[fine_n - half + 1 :] = spectrum[half + 1 :]
            padded[half] = padded[fine_n - half] = 0.5 * spectrum[half]
            np.fft.ifft(padded, out=up)
            up *= 2
    up = [upsampled[id(f)] for f in factors]
    # the running product overwrites an upsampled factor that no later
    # factor needs; only [a, a, a] needs a buffer of its own
    last = up[2] if len(up) == 3 else None
    running = next((b for b in up[:2] if b is not last), None)
    if running is None:
        running = fine_buffer(1)
    np.multiply(up[0], up[1], out=running)
    if last is not None:
        np.multiply(running, last, out=running)

    # truncated in place: the first N entries become the N-point spectrum
    np.fft.fft(running, out=running)
    running *= 0.5
    running[half + 1 : n] = running[fine_n - half + 1 :]
    running[half] += running[fine_n - half]
    return np.fft.ifft(running[:n], out=out)


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
